"""The row walk that `mot1d.solve_sweep` used before it solved all rows at
once from the cumulative equations, kept as an independent oracle for the
property tests: each row's split is found by walking the kinks of the gap
from the frontier state the earlier rows left, and atoms are consumed by a
Python loop. Copied unchanged apart from the names.
"""

import numpy as np

from motkit import (DiscreteMeasure, InputError, NotInConvexOrderError,
                    SeparationError, SeparationInterval, SolverFailureError,
                    TransportMaps)
from motkit.measures import MASS_TOL, convex_order_check
from motkit.mot1d import SNAP_FRACTION
from lemmas import from_entries


class _Frontier:
    """One consumption frontier over nu atoms listed in consumption order.

    The state is the current atom `idx` and the unconsumed mass `left` of
    each atom; taking an atom whole moves `idx` on. Prefix sums of mass and
    first moment over whole atoms give the remaining mass in O(1) and the
    moment of any consumption in O(log n).
    """

    __slots__ = ("pos", "w", "left", "cum", "cum_mom", "idx", "snap", "boundary")

    def __init__(self, pos, w, snap, boundary):
        self.pos, self.w, self.left = pos.tolist(), w.tolist(), w.tolist()
        self.cum = np.concatenate(([0.0], np.cumsum(w)))
        self.cum_mom = np.concatenate(([0.0], np.cumsum(w * pos))).tolist()
        self.idx, self.snap, self.boundary = 0, snap, float(boundary)

    def remaining(self) -> float:
        j = self.idx
        if j == len(self.w):
            return 0.0
        return self.left[j] + float(self.cum[-1] - self.cum[j + 1])

    def locate(self, t: float):
        """Where taking `t` (at most remaining()) from the front ends:
        (atom i, mass taken from atom i, first moment taken)."""
        j, pos = self.idx, self.pos
        r = self.left[j]
        if t <= r or j == len(pos) - 1:
            return j, t, t * pos[j]
        # atoms j+1..i-1 are taken whole, atom i in part
        base = self.cum[j + 1]
        i = int(np.searchsorted(self.cum, base + (t - r))) - 1
        i = min(max(i, j + 1), len(pos) - 1)
        u = (t - r) - float(self.cum[i] - base)
        whole = self.cum_mom[i] - self.cum_mom[j + 1]
        return i, u, r * pos[j] + whole + u * pos[i]

    def take(self, need: float):
        """Take `need` from the front; returns (moment, [(position, mass)]).
        An atom left with at most `snap` is taken whole (its own remaining
        mass) and a need of at most `snap` is dropped, so no dust is left."""
        moment, takes = 0.0, []
        while need > self.snap and self.idx < len(self.w):
            y, r = self.pos[self.idx], self.left[self.idx]
            take = r if r - need <= self.snap else need
            takes.append((y, take))
            moment += take * y
            need -= take
            self.left[self.idx] = r - take
            if take == r:
                self.idx += 1
        return moment, takes

    def map_state(self):
        """(deepest consumed atom, consumed fraction) after the last take."""
        j, w = self.idx, self.w
        if j < len(w) and self.left[j] < w[j]:
            return self.pos[j], 1.0 - self.left[j] / w[j]
        if j == 0:
            return self.boundary, 0.0
        return self.pos[j - 1], 1.0


def _row_split(lower: _Frontier, upper: _Frontier, x: float, m: float,
               lo_b: float, hi_b: float) -> float:
    """Mass rho in [lo_b, hi_b] routed to the lower frontier so that the
    row's consumed first moment matches m * x.

    The gap g(rho) = moment(lower, rho) + moment(upper, m - rho) - m x is
    piecewise linear: with the lower side in atom j and the upper side in
    atom k its slope is pos_lo[j] - pos_hi[k] < 0. The walk starts at lo_b;
    each step crosses a kink (j up or k down) or ends the row. Returns lo_b
    when g(lo_b) <= 0 and hi_b when g stays positive.
    """
    if lo_b >= hi_b:
        return lo_b
    rho = lo_b
    j, u, mom_lo = lower.locate(rho)
    k, b, mom_hi = upper.locate(m - rho)   # b: mass of upper atom k taken
    a = lower.left[j] - u                  # mass of lower atom j left
    g = mom_lo + mom_hi - m * x
    while g > 0.0:
        d = min(a, b)
        slope = lower.pos[j] - upper.pos[k]
        if g + slope * d <= 0.0:
            return rho + g / -slope
        rho, g = rho + d, g + slope * d
        if a <= b:
            j += 1
            if j == len(lower.w):
                return hi_b
            a, b = lower.w[j], b - d
        else:
            k -= 1
            if k < upper.idx:
                return hi_b
            a, b = a - d, upper.left[k]
    return rho


def _frontiers(nu: DiscreteMeasure, interval: SeparationInterval, snap: float):
    """Frontiers over the nu atoms at or below a and at or above b, each
    listed from its largest atom down."""
    pos, w = nu.positions, nu.masses
    inside = (pos > interval.a) & (pos < interval.b)
    if inside.any():
        raise SeparationError(
            f"nu has mass inside the separation interval at {pos[inside][:3]}")
    low = pos <= interval.a
    return (_Frontier(pos[low][::-1], w[low][::-1], snap, interval.a),
            _Frontier(pos[~low][::-1], w[~low][::-1], snap, interval.b))


def row_walk_sweep(mu: DiscreteMeasure, nu: DiscreteMeasure,
                interval: SeparationInterval, tol: float = 1e-9):
    """Construct the optimal martingale coupling of a separated instance.

    Returns (Coupling, TransportMaps). Raises SeparationError if the interval
    does not separate the marginals, NotInConvexOrderError if no martingale
    coupling exists, SolverFailureError if the per-row moment equation cannot
    be met within tolerance (numerically inconsistent marginals).
    """
    if mu.dim != 1 or nu.dim != 1:
        raise InputError("sweep solver handles dim=1 measures")
    if len(mu) == 0:
        raise InputError("mu is empty")
    if np.any(mu.positions <= interval.a) or np.any(mu.positions >= interval.b):
        raise SeparationError("mu has mass outside the open separation interval")
    snap = SNAP_FRACTION * nu.total_mass()
    lower, upper = _frontiers(nu, interval, snap)
    order_tol = max(tol, MASS_TOL)
    report = convex_order_check(mu, nu, tol=order_tol)
    if not report.in_order:
        raise NotInConvexOrderError(report.failure(order_tol), report=report)
    pos_scale = max(1.0, float(np.abs(nu.positions).max(initial=0.0)))
    entries, map_rows = [], []

    for x, m in zip(mu.positions.tolist(), mu.masses.tolist()):
        r_lo, r_hi = lower.remaining(), upper.remaining()
        lo_b = max(0.0, m - r_hi)
        hi_b = min(m, r_lo)
        if lo_b > hi_b:
            if lo_b - hi_b > tol * max(1.0, m):
                raise SolverFailureError(
                    f"remaining nu mass cannot cover mu atom at x={x:.6g}",
                    residual=lo_b - hi_b)
            lo_b = hi_b

        rho = _row_split(lower, upper, x, m, lo_b, hi_b)
        mom_lo, takes_lo = lower.take(rho)
        mom_hi, takes_hi = upper.take(m - rho)
        resid = mom_lo + mom_hi - m * x
        allowed = tol * max(1.0, m * pos_scale)
        if abs(resid) > allowed:
            raise SolverFailureError(
                f"row barycenter residual {resid:.3e} exceeds {allowed:.3e} "
                f"at x={x:.6g}", residual=resid)

        entries += [(x, y, w) for y, w in takes_lo + takes_hi]
        (s_val, s_frac), (t_val, t_frac) = lower.map_state(), upper.map_state()
        map_rows.append((x, s_val, t_val, s_frac, t_frac))

    leftover = lower.remaining() + upper.remaining()
    imbalance = abs(nu.total_mass() - mu.total_mass())
    if leftover > tol * (len(mu) + len(nu)) + imbalance:
        raise SolverFailureError(
            f"nu mass left unconsumed after sweep: {leftover:.3e}",
            residual=leftover)

    return from_entries(entries), TransportMaps(*np.asarray(map_rows).T)
