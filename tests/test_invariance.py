"""Affine and mass-scale invariance of the solvers.

The problem min E|X - Y|^p over martingale couplings commutes with the map
x -> alpha x + beta of both marginals and with scaling every mass by gamma:
the optimal coupling maps along (its matrix by atom index is gamma times the
base one, mirrored when alpha < 0, because atoms are kept in increasing
order) and the cost becomes gamma |alpha|^p times the base cost. A shift
by beta rounds the positions to the ulps of beta, so that case asks only
for a successful solve of the same cost within 1e-8.
"""

import numpy as np
import pytest

from motkit import DiscreteMeasure, cost, coupling_matrix, solve, solve_lp
from instances import separated_instance, spread_pair_instance

# (alpha, gamma): each position scale and reflection, then each mass scale
SCALINGS = ([(alpha, 1.0) for alpha in (1e-6, 1e-3, 1e3, 1e6, -1.0)]
            + [(1.0, gamma) for gamma in (1e-8, 1e-4, 1e4)])
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
