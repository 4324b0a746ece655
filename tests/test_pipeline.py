"""The one solve pipeline: split, order check, route, and its errors."""

import json

import numpy as np
import pytest

import motkit.lp
import motkit.mot1d
import motkit.pipeline
from motkit import (DiscreteMeasure, InputError, NotInConvexOrderError,
                    RadialAtoms, SeparationError, SolverFailureError,
                    convex_order_check, cost, solve, solve_radial)
from motkit.cli import main
from motkit.lp import LpSolution

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


def _infeasible(mu, nu, p, sense="min"):
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


def _failed_simplex(A, b, c, feas_tol):
    return "failure", None, 0, "phase 1 ended with maxiter"


def _zero_optimum(A, b, c, feas_tol):
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

    def test_missed_residual_gate(self, monkeypatch):
        # all-zero weights leave the largest right-hand side, mu's 0.5, unmet
        monkeypatch.setattr(motkit.lp, "simplex_solve", _zero_optimum)
        with pytest.raises(SolverFailureError, match="feasibility residual") as info:
            motkit.lp.solve_lp(MU, NU_INSIDE, 1.0)
        assert info.value.residual == 0.5
