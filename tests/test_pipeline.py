"""The one solve pipeline: split, order check, route, and its errors."""

import json

import numpy as np
import pytest

import motkit.lp
from motkit import (DiscreteMeasure, InputError, NotInConvexOrderError,
                    RadialAtoms, SeparationInterval, convex_order_check, cost,
                    solve, solve_radial, solve_sweep)
from motkit.cli import main
from motkit.lp import LpSolution

MU = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
NU = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
# non-separated: a nu atom sits inside the hull of mu
NU_INSIDE = DiscreteMeasure([-2.0, 0.0, 2.0], [0.4, 0.2, 0.4])
# shells r=1 and r=2 whose masses differ by 5e-9: only the mass gap fails
SHELLS = (RadialAtoms(2, [1.0], [1.0]), RadialAtoms(2, [2.0], [1.0 + 5e-9]))


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
            solve_sweep(MU, nu, SeparationInterval(-1.0, 1.0))

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

    def test_solve_and_solve_radial_exit_one(self, tmp_path, monkeypatch):
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({
            "mu": {"type": "discrete", "atoms": [[-0.5, 0.5], [0.5, 0.5]]},
            "nu": {"type": "discrete",
                   "atoms": [[-2.0, 0.4], [0.0, 0.2], [2.0, 0.4]]}}))
        radial = tmp_path / "radial.json"
        radial.write_text(json.dumps({
            "dim": 2,
            "mu": {"type": "radial-atoms", "atoms": [[1.0, 1.0]]},
            "nu": {"type": "radial-atoms",
                   "atoms": [[0.5, 2.0 / 3.0], [2.0, 1.0 / 3.0]]}}))
        assert main(["solve", str(pair)]) == 0
        assert main(["solve-radial", str(radial)]) == 0
        monkeypatch.setattr(motkit.lp, "solve_lp", _infeasible)
        assert main(["solve", str(pair)]) == 1
        assert main(["solve-radial", str(radial)]) == 1
