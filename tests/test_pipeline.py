"""The one solve pipeline: split, order check, route, and its errors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motkit.lp
import motkit.mot1d
import motkit.pipeline
from motkit import (DiscreteMeasure, InputError, NotInConvexOrderError,
                    RadialAtoms, SeparationError, SolverFailureError,
                    common_mass_split, convex_order_check, cost, solve, solve_radial,
                    validate_coupling)
from motkit.cli import main
from motkit.lp import LpSolution
from instances import separated_instance, spread_pair_instance

MU = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
NU = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
# non-separated: a nu atom sits inside the hull of mu
NU_INSIDE = DiscreteMeasure([-2.0, 0.0, 2.0], [0.4, 0.2, 0.4])
# shells r=1 and r=2 whose masses differ by 5e-9: only the mass gap fails
SHELLS = (RadialAtoms(2, [1.0], [1.0]), RadialAtoms(2, [2.0], [1.0 + 5e-9]))


@pytest.fixture
def overlap_pair(tmp_path):
    """MU and NU_INSIDE as a pair file: `solve` routes it to the LP."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "mu": {"type": "discrete", "atoms": [[-0.5, 0.5], [0.5, 0.5]]},
        "nu": {"type": "discrete",
               "atoms": [[-2.0, 0.4], [0.0, 0.2], [2.0, 0.4]]}}))
    return str(path)


class TestRoute:
    def test_separated_goes_to_sweep(self):
        sol = solve(MU, NU, 1.0)
        assert sol.route == "sweep" and sol.maps is not None
        assert len(sol.common) == 0
        assert cost(sol.coupling(), 1.0) == pytest.approx(1.875, abs=1e-12)

    def test_overlap_goes_to_lp(self):
        sol = solve(MU, NU_INSIDE, 1.0)
        assert sol.route == "lp" and sol.maps is None
        assert sol.coupling().total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_common_mass_stays_on_the_diagonal(self):
        mu = DiscreteMeasure([-0.5, 0.5, 1.0], [0.4, 0.4, 0.2])
        nu = DiscreteMeasure([-2.0, 1.0, 2.0], [0.4, 0.2, 0.4])
        sol = solve(mu, nu, 1.0)
        assert sol.route == "sweep"
        assert sol.common.positions.tolist() == [1.0]
        first = sol.coupling().entries()[0]
        assert first == (1.0, 1.0, 0.2)

    def test_nothing_left_to_move(self):
        sol = solve(MU, MU, 1.0)
        assert sol.route is None and sol.pi is None and sol.maps is None
        full = sol.coupling()
        assert np.array_equal(full.xs, full.ys)

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError, match="method"):
            solve(MU, NU, 1.0, method="simplex")

    def test_forced_sweep_on_overlap_is_a_separation_error(self):
        with pytest.raises(SeparationError, match="not separated"):
            solve(MU, NU_INSIDE, 1.0, method="sweep")


class TestUnits:
    """The order check, the sweep and the LP take their units from the input
    pair."""

    @pytest.mark.parametrize("route,pair", [
        ("sweep", separated_instance), ("lp", lambda rng: spread_pair_instance(rng, 12))])
    def test_small_remainder_keeps_the_input_units(self, route, pair):
        # mu's atoms weigh 1 + 1e-9 w, and nu holds 1 at each of them: the
        # split leaves a remainder of mass 1e-9 whose masses carry rounding
        # of the input's scale, about 1e-16, not of the remainder's; that is
        # 1e-7 of the remainder, past the LP's FEAS_TOL in its own units
        mu0, nu0 = pair(np.random.default_rng([89, 1]))
        mu = DiscreteMeasure(mu0.positions, 1.0 + 1e-9 * mu0.masses)
        nu = DiscreteMeasure(np.concatenate([mu0.positions, nu0.positions]),
                             np.concatenate([np.ones(len(mu0)), 1e-9 * nu0.masses]))
        _, mu_bar, nu_bar = common_mass_split(mu, nu)
        assert mu_bar.total_mass() < 2e-9
        assert not convex_order_check(mu_bar, nu_bar, tol=1e-9).in_order
        sol = solve(mu, nu, 0.5)
        assert sol.route == route
        assert validate_coupling(sol.coupling(), mu, nu).ok(1e-9)


class TestSingleGate:
    """The pipeline checks the remainder's convex order once; the sweep does
    not check it again."""

    @pytest.fixture
    def order_checks(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return convex_order_check(*args, **kwargs)
        for module in (motkit.pipeline, motkit.mot1d):
            monkeypatch.setattr(module, "convex_order_check", counted)
        return calls

    @pytest.mark.parametrize("run", [
        lambda: solve(MU, NU, 1.0),
        lambda: solve(MU, NU_INSIDE, 1.0),
        lambda: solve_radial(SHELLS[0], RadialAtoms(2, [2.0], [1.0]), 1.0),
    ], ids=["sweep", "lp", "radial"])
    def test_one_order_check_per_solve(self, run, order_checks):
        run()
        assert len(order_checks) == 1


class TestOrderFailure:
    def test_error_carries_report(self):
        with pytest.raises(NotInConvexOrderError) as info:
            solve(NU, MU, 1.0)
        assert info.value.report is not None
        assert not info.value.report.in_order
        assert "call-function gap" in str(info.value)

    def test_tol_is_the_callers(self):
        nu = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5 + 5e-9])
        with pytest.raises(NotInConvexOrderError, match="mass gap"):
            solve(MU, nu, 1.0)
        assert solve(MU, nu, 1.0, tol=1e-8).route == "sweep"

    def test_messages_name_the_failing_condition(self):
        mass = convex_order_check(MU, DiscreteMeasure([-2.0, 2.0], [0.5, 0.6]))
        mean = convex_order_check(MU, DiscreteMeasure([-2.0, 2.0], [0.4, 0.6]))
        call = convex_order_check(NU, MU)
        assert mass.failure(1e-9).startswith("mass gap")
        assert mean.failure(1e-9).startswith("mean gap")
        assert call.failure(1e-9).startswith("call-function gap")

    def test_sweep_message_names_the_mass_gap(self):
        nu = DiscreteMeasure([-2.0, 2.0], [0.5, 0.6])
        with pytest.raises(NotInConvexOrderError, match="mass gap"):
            solve(MU, nu, 1.0, method="sweep")

    def test_radial_message_names_the_mass_gap(self):
        with pytest.raises(NotInConvexOrderError) as info:
            solve_radial(*SHELLS, 1.0)
        assert "mass" in str(info.value)
        assert "refine the quantization" in str(info.value)
        assert info.value.report.mass_gap == pytest.approx(5e-9, rel=1e-6)


def _infeasible(mu, nu, p, sense="min", scale=None):
    return LpSolution("infeasible", None, None, None, {}, 0)


class TestLpInfeasibleAfterOrderCheck:
    """An LP that reports infeasible after the order check passed is one
    outcome for both commands: exit 1."""

    def test_solve_and_solve_radial_exit_one(self, overlap_pair, tmp_path,
                                             monkeypatch):
        radial = tmp_path / "radial.json"
        radial.write_text(json.dumps({
            "dim": 2,
            "mu": {"type": "radial-atoms", "atoms": [[1.0, 1.0]]},
            "nu": {"type": "radial-atoms",
                   "atoms": [[0.5, 2.0 / 3.0], [2.0, 1.0 / 3.0]]}}))
        assert main(["solve", overlap_pair]) == 0
        assert main(["solve-radial", str(radial)]) == 0
        monkeypatch.setattr(motkit.lp, "solve_lp", _infeasible)
        assert main(["solve", overlap_pair]) == 1
        assert main(["solve-radial", str(radial)]) == 1


def _failed_simplex(A, b, c, start=None, feas_tol=None):
    raise SolverFailureError("phase 1 ended with maxiter")


def _zero_optimum(A, b, c, start=None, feas_tol=None):
    return "optimal", np.zeros(A.shape[1]), 0, ""


class TestLpFailureExitsThree:
    """The LP raises its own numerical failures; both commands exit 3 on
    them and print nothing."""

    def test_failed_simplex(self, overlap_pair, monkeypatch, capsys):
        monkeypatch.setattr(motkit.lp, "simplex_solve", _failed_simplex)
        with pytest.raises(SolverFailureError, match="phase 1 ended"):
            motkit.lp.solve_lp(MU, NU_INSIDE, 1.0)
        assert main(["solve", overlap_pair, "--method", "lp"]) == 3
        assert main(["oracle", overlap_pair]) == 3
        assert capsys.readouterr().out == ""

    def test_singular_basis(self, overlap_pair, monkeypatch, capsys):
        # a start with one column twice: np.linalg.inv raises LinAlgError,
        # which leaves the LP as a SolverFailureError
        start = motkit.lp.MotLp._start

        def singular(prob):
            cols = start(prob).copy()
            cols[1] = cols[0]
            return cols

        monkeypatch.setattr(motkit.lp.MotLp, "_start", singular)
        with pytest.raises(SolverFailureError, match="singular basis"):
            motkit.lp.solve_lp(MU, NU_INSIDE, 1.0)
        assert main(["solve", overlap_pair, "--method", "lp"]) == 3
        assert main(["oracle", overlap_pair]) == 3
        assert capsys.readouterr().out == ""

    def test_missed_residual_gate(self, monkeypatch):
        # all-zero weights leave the largest right-hand side, mu's 0.5, unmet
        monkeypatch.setattr(motkit.lp, "simplex_solve", _zero_optimum)
        with pytest.raises(SolverFailureError, match="feasibility residual") as info:
            motkit.lp.solve_lp(MU, NU_INSIDE, 1.0)
        assert info.value.residual == 0.5


GRID = 16   # positions are multiples of 1/GRID: mu's inside (-1, 1), nu's outside


@st.composite
def permuted_split_pairs(draw):
    """A pair in convex order, each of mu's atoms spread over a lower and an
    upper atom of nu, plus common atoms on half-grid positions that the
    split removes whole; and the same pair with each side's atoms permuted
    and one atom of each side split into two exact halves at its position."""
    k = draw(st.integers(1, 5))
    xs = np.array(sorted(draw(st.sets(st.integers(-GRID + 1, GRID - 1),
                                      min_size=k, max_size=k)))) / GRID
    ms = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    pool = st.integers(GRID, 3 * GRID)
    acc = {}
    for x, m in zip(xs.tolist(), ms.tolist()):
        lo, hi = -draw(pool) / GRID, draw(pool) / GRID
        t = (hi - x) / (hi - lo)
        acc[lo] = acc.get(lo, 0.0) + m * t
        acc[hi] = acc.get(hi, 0.0) + m * (1 - t)
    common = draw(st.lists(st.tuples(st.integers(-3 * GRID, 3 * GRID), st.floats(0.05, 1.0)),
                           max_size=2, unique_by=lambda c: c[0]))
    cpos = np.array([(2 * c + 1) / (2 * GRID) for c, _ in common])
    cw = np.array([w for _, w in common])
    sides = [(np.concatenate([xs, cpos]), np.concatenate([ms, cw])),
             (np.concatenate([list(acc), cpos]), np.concatenate([list(acc.values()), cw]))]
    scrambled = []
    for pos, w in sides:
        perm = np.array(draw(st.permutations(range(len(w)))))
        i = draw(st.integers(0, len(w) - 1))
        pos, w = pos[perm], w[perm]
        scrambled.append((np.insert(pos, i, pos[i]),
                          np.concatenate([w[:i], [w[i] / 2, w[i] / 2], w[i + 1:]])))
    return sides, scrambled, draw(st.sampled_from([0.5, 1.0]))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPermutedAndSplitAtoms:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(permuted_split_pairs())
    def test_measures_and_couplings_keep_their_bits(self, case):
        sides, scrambled, p = case
        mu, nu = (DiscreteMeasure(*side) for side in sides)
        mu2, nu2 = (DiscreteMeasure(*side) for side in scrambled)
        for a, b in ((mu, mu2), (nu, nu2)):
            assert same_bits(a.positions, b.positions) and same_bits(a.masses, b.masses)
        for method in ("sweep", "lp"):
            want = solve(mu, nu, p, method=method)
            got = solve(mu2, nu2, p, method=method)
            assert got.route == want.route == method
            pi, ref = got.coupling(), want.coupling()
            for name in ("xs", "ys", "masses"):
                assert same_bits(getattr(pi, name), getattr(ref, name))
