"""The one solve pipeline for 1-D martingale transport: split off the common
mass, check the remainder's convex order once, then route it to the frontier
sweep when it is separated and to the LP oracle otherwise. `motkit solve` and
`radial.solve_radial` both run through it. It is apart from `mot1d` because
`lp` imports `mot1d.Coupling`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError, NotInConvexOrderError, SeparationError
from . import lp as lp_mod
from .measures import DiscreteMeasure, common_mass_split, convex_order_check, scale_of
from .mot1d import (Coupling, TransportMaps, check_exponent, detect_separation,
                    solve_sweep)


class Solution(NamedTuple):
    """Common mass (kept on the diagonal) and the remainder's coupling. route
    is "sweep", "lp", or None when nothing is left to move; maps is set on
    the sweep route only; scale is the input pair's `scale_of`."""

    common: DiscreteMeasure
    pi: Coupling | None
    maps: TransportMaps | None
    route: str | None
    scale: tuple

    def coupling(self) -> Coupling:
        """The diagonal entries followed by the remainder's."""
        parts = [(self.common.positions, self.common.positions, self.common.masses)]
        if self.pi is not None:
            parts.append((self.pi.xs, self.pi.ys, self.pi.masses))
        return Coupling(*(np.concatenate(arrays) for arrays in zip(*parts)))


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float,
          method: str = "auto", tol: float = 1e-9) -> Solution:
    """Optimal martingale coupling of two 1-D measures for cost |x-y|^p.

    The only gate of a 1-D solve: behind it, the sweep and the LP raise only
    their own numerical failures (SolverFailureError). Raises
    NotInConvexOrderError when the remainder fails the order check at `tol`
    (carrying the OrderReport) or the LP finds it infeasible (no report);
    forcing "sweep" on a non-separated remainder raises SeparationError.
    `tol` is in the units of the input pair, whose scale the split rounds to.
    """
    check_exponent(p)
    if method not in ("auto", "sweep", "lp"):
        raise InputError(f"unknown method {method!r}")
    scale = scale_of(mu, nu)
    common, mu_bar, nu_bar = common_mass_split(mu, nu)
    report = convex_order_check(mu_bar, nu_bar, tol=tol, scale=scale)
    if not report.in_order:
        raise NotInConvexOrderError(report.failure(tol), report=report)
    if len(mu_bar) == 0:
        return Solution(common, None, None, None, scale)

    interval = detect_separation(mu_bar, nu_bar)
    if method == "auto":
        method = "lp" if interval is None else "sweep"
    if method == "sweep":
        if interval is None:
            raise SeparationError("marginals are not separated; use --method lp")
        pi, maps = solve_sweep(mu_bar, nu_bar, interval, tol=tol, scale=scale)
        return Solution(common, pi, maps, "sweep", scale)
    sol = lp_mod.solve_lp(mu_bar, nu_bar, p, scale=scale)
    if sol.status == "infeasible":
        raise NotInConvexOrderError("the LP finds no martingale coupling")
    return Solution(common, sol.coupling, None, "lp", scale)
