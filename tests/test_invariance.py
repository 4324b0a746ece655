"""Affine and mass-scale invariance of the solvers.

The problem min E|X - Y|^p over martingale couplings commutes with the map
x -> alpha x + beta of both marginals and with scaling every mass by gamma:
the optimal coupling maps along (its matrix by atom index is gamma times the
base one, mirrored when alpha < 0, because atoms are kept in increasing
order) and the cost becomes gamma |alpha|^p times the base cost. A shift
by beta rounds the positions to the ulps of beta, so that case asks only
for a successful solve of the same cost within 1e-8.

The gates follow the instance's units (`measures.scale_of`): a mapped pair
passes the order check and `validate_coupling(...).ok(1e-9)` as the base
pair does, and an out-of-order pair fails the check at any mass scale.
"""

import json

import numpy as np
import pytest

from motkit import (DiscreteMeasure, NotInConvexOrderError, cost, coupling_matrix,
                    detect_separation, solve, solve_lp, validate_coupling)
from motkit.cli import main
from motkit.mot1d import solve_sweep, write_coupling_json
from instances import not_in_order_instance, separated_instance, spread_pair_instance

# (alpha, gamma): each position scale and reflection, then each mass scale,
# then both together
SCALINGS = ([(alpha, 1.0) for alpha in (1e-6, 1e-3, 1e3, 1e6, -1.0)]
            + [(1.0, gamma) for gamma in (1e-10, 1e-8, 1e-4, 1e4, 1e8, 1e12)]
            + [(1e3, 1e4), (1e6, 1e4), (1e-6, 1e8), (1e6, 1e-10), (-1e3, 1e12)])
BETAS = (1e3, 1e6)
SEEDS = range(6)


def mapped(m: DiscreteMeasure, alpha=1.0, beta=0.0, gamma=1.0) -> DiscreteMeasure:
    return DiscreteMeasure(alpha * m.positions + beta, gamma * m.masses)


def lp_solve(mu, nu, p):
    sol = solve_lp(mu, nu, p)
    assert sol.status == "optimal"
    return sol.objective, sol.matrix


def pipeline_solve(mu, nu, p):
    pi = solve(mu, nu, p).coupling()
    return cost(pi, p), coupling_matrix(pi, mu, nu)


CASES = {
    "lp": (lambda seed: spread_pair_instance(np.random.default_rng([83, seed]), 12),
           lp_solve),
    "pipeline": (lambda seed: separated_instance(np.random.default_rng([89, seed])),
                 pipeline_solve),
}


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("alpha,gamma", SCALINGS)
@pytest.mark.parametrize("route", list(CASES))
def test_scale_and_reflection(route, alpha, gamma, p):
    pair, solver = CASES[route]
    for seed in SEEDS:
        mu, nu = pair(seed)
        base_cost, base_mat = solver(mu, nu, p)
        got_cost, got_mat = solver(mapped(mu, alpha, gamma=gamma),
                                   mapped(nu, alpha, gamma=gamma), p)
        expect = gamma * abs(alpha) ** p * base_cost
        assert abs(got_cost - expect) <= 1e-12 * expect
        if alpha < 0:
            base_mat = base_mat[::-1, ::-1]
        assert np.abs(got_mat - gamma * base_mat).max() <= 1e-12 * gamma


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("route", list(CASES))
def test_shift(route, beta, p):
    pair, solver = CASES[route]
    for seed in SEEDS:
        mu, nu = pair(seed)
        base_cost, _ = solver(mu, nu, p)
        got_cost, _ = solver(mapped(mu, beta=beta), mapped(nu, beta=beta), p)
        assert abs(got_cost - base_cost) <= 1e-8 * base_cost


@pytest.mark.parametrize("alpha,gamma", SCALINGS)
@pytest.mark.parametrize("route", list(CASES))
def test_solve_validates_at_every_scale(route, alpha, gamma):
    pair, _ = CASES[route]
    for seed in SEEDS:
        mu, nu = (mapped(m, alpha, gamma=gamma) for m in pair(seed))
        sol = solve(mu, nu, 0.5)
        assert sol.route == ("lp" if route == "lp" else "sweep")
        assert validate_coupling(sol.coupling(), mu, nu).ok(1e-9)


def tiny_out_of_order(seed):
    """An out-of-order pair whose masses are all below 1e-10."""
    mu, nu = not_in_order_instance(np.random.default_rng([97, seed]))
    return mapped(mu, gamma=1e-10), mapped(nu, gamma=1e-10)


@pytest.mark.parametrize("seed", SEEDS)
def test_tiny_masses_out_of_order_raise(seed):
    with pytest.raises(NotInConvexOrderError):
        solve(*tiny_out_of_order(seed), 0.5)


def test_verify_rejects_a_tiny_mass_coupling(tmp_path):
    # the sweep with its gates read at unit scale, on a pair that is not in
    # convex order: its marginal or barycenter residuals are 16-27% of mu's
    # mass, and every entry weighs less than the forbidden search's 1e-10
    mu, nu = tiny_out_of_order(1)
    pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu), scale=(1.0, 0.0, 1.0))
    assert pi.masses.max() < 1e-10
    assert not validate_coupling(pi, mu, nu).ok(1e-9)
    coupling, pair = tmp_path / "c.json", tmp_path / "pair.json"
    write_coupling_json(coupling, pi)
    pair.write_text(json.dumps({
        key: {"type": "discrete", "atoms": np.column_stack([m.positions, m.masses]).tolist()}
        for key, m in (("mu", mu), ("nu", nu))}))
    assert main(["verify", "--coupling", str(coupling), "--marginals", str(pair)]) == 1
