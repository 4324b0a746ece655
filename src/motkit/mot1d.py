"""Martingale coupling of separated 1-D marginals by a frontier sweep.

Setting: mu carries all its mass inside an open interval I = (a, b) while nu
carries none there, the totals and means agree, and mu precedes nu in convex
order. The optimal martingale coupling for cost |x-y|^p, any 0 < p <= 1, is
then unique and has a closed structure: scanning the mu atoms left to right,
each atom splits its mass between two moving frontiers,

  * the lower frontier, consuming nu-mass on (-inf, a] starting at the
    largest such atom and moving down,
  * the upper frontier, consuming nu-mass on [b, inf) starting at the
    largest atom and moving down toward b,

with the split chosen so the consumed first moment matches the atom's
barycenter. The consumed moment is piecewise linear and strictly decreasing in
the mass routed to the lower side, with kinks where either frontier crosses a
nu atom, so each row's split is solved exactly by walking those kinks. The
construction never reads p, which is the point: the optimizer is the same for
every exponent in (0, 1].

Per-row consumption is contiguous, so each source atom reaches one or two nu
atoms per side and the recorded frontier maps are nonincreasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotInConvexOrderError, SeparationError, SolverFailureError
from .measures import (MASS_TOL, POSITION_TOL, DiscreteMeasure,
                       convex_order_check, group_atoms, nearest_atom)

# Remaining atom slivers below this fraction of the total mass are absorbed
# while walking a frontier, so exact-exhaustion roots do not leave dust atoms.
SNAP_FRACTION = 1e-13


@dataclass(frozen=True)
class SeparationInterval:
    """Open interval (a, b) meant to carry all of mu and none of nu."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise InputError("separation interval needs finite a < b")


def check_exponent(p: float):
    """Reject a cost exponent outside (0, 1], the range the solvers cover."""
    if not (0.0 < p <= 1.0):
        raise InputError(f"cost exponent p={p} outside (0, 1]")


@dataclass(frozen=True)
class Coupling:
    """Atomic measure on source-target pairs; rows are disintegrations."""

    xs: np.ndarray
    ys: np.ndarray
    masses: np.ndarray
    dim: int = 1

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        w = np.asarray(self.masses, dtype=float)
        if self.dim > 1:
            xs = xs.reshape(-1, self.dim)
            ys = ys.reshape(-1, self.dim)
        if len(xs) != len(w) or len(ys) != len(w):
            raise InputError("entry arrays must share length")
        if np.any(w <= 0) or np.any(~np.isfinite(w)):
            raise InputError("entry masses must be positive and finite")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise InputError("entry positions must be finite")
        for arr in (xs, ys, w):
            arr.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "masses", w)

    @classmethod
    def from_entries(cls, entries, dim: int = 1) -> "Coupling":
        entries = list(entries)
        xs = [e[0] for e in entries]
        ys = [e[1] for e in entries]
        w = [e[2] for e in entries]
        return cls(np.asarray(xs), np.asarray(ys), np.asarray(w), dim)

    def __len__(self) -> int:
        return len(self.masses)

    def entries(self):
        return list(zip(self.xs, self.ys, self.masses))

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def source_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.xs, self.masses, self.dim)

    def target_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.ys, self.masses, self.dim)

    def row_segments(self):
        """Sort order of the entries by (row, x, y) and the first position of
        each row in it. A row is one `group_atoms` group of the sources, and
        rows are ordered by source, so a row's first entry holds its
        smallest source."""
        n = len(self)
        labels = group_atoms(self.xs)
        order = np.lexsort((*self.ys.reshape(n, self.dim).T[::-1],
                            *self.xs.reshape(n, self.dim).T[::-1], labels))
        return order, np.flatnonzero(np.diff(labels[order], prepend=-1))

    def rows(self):
        """Group entries by source atom: list of (x, target array, mass array).

        Rows follow `row_segments`: x is the row's smallest source and
        entries are sorted by (x, y).
        """
        order, starts = self.row_segments()
        xs, ys, w = self.xs[order], self.ys[order], self.masses[order]
        ends = np.append(starts[1:], len(order))
        return [(float(xs[s]) if self.dim == 1 else xs[s], ys[s:e], w[s:e])
                for s, e in zip(starts.tolist(), ends.tolist())]


@dataclass(frozen=True)
class TransportMaps:
    """Sampled frontier maps along the mu atoms (rows ordered by x).

    lower/upper hold the deepest nu atom each row touched on its side;
    lower_frac/upper_frac the cumulative consumed fraction of that atom.
    """

    xs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lower_frac: np.ndarray
    upper_frac: np.ndarray

    def __post_init__(self):
        for name in ("xs", "lower", "upper", "lower_frac", "upper_frac"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise InputError("map values must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = len(self.xs)
        if any(len(getattr(self, f)) != n
               for f in ("lower", "upper", "lower_frac", "upper_frac")):
            raise InputError("map columns must share length")

    def __len__(self) -> int:
        return len(self.xs)

    def as_rows(self):
        return [tuple(map(float, r)) for r in
                zip(self.xs, self.lower, self.upper, self.lower_frac, self.upper_frac)]


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


def solve_sweep(mu: DiscreteMeasure, nu: DiscreteMeasure,
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
    snap = SNAP_FRACTION * max(1.0, nu.total_mass())
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

    return Coupling.from_entries(entries), TransportMaps(*np.asarray(map_rows).T)


def cost(pi: Coupling, p: float) -> float:
    """Transport cost sum(mass * |x-y|^p); Euclidean distance for dim>1."""
    if p <= 0:
        raise InputError("cost exponent must be positive")
    if len(pi) == 0:
        return 0.0
    if pi.dim == 1:
        dist = np.abs(pi.xs - pi.ys)
    else:
        dist = np.linalg.norm(pi.xs - pi.ys, axis=1)
    return float(np.dot(pi.masses, dist ** p))


def reflection_residual(pi: Coupling) -> float:
    """Distance between a 1-D coupling and its reflection through 0."""
    if len(pi) == 0:
        return 0.0
    a = np.lexsort((pi.ys, pi.xs))          # entries in (x, y) order
    b = np.lexsort((-pi.ys, -pi.xs))        # reflected entries in that order
    return float(max(np.abs(pi.xs[a] + pi.xs[b]).max(),
                     np.abs(pi.ys[a] + pi.ys[b]).max(),
                     np.abs(pi.masses[a] - pi.masses[b]).max()))


def detect_separation(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Largest open interval carrying all mu mass and no nu mass, or None.

    The hull of supp(mu) must be free of nu atoms; the interval then extends
    to the adjacent nu atoms on each side.
    """
    if len(mu) == 0:
        return None
    x_min, x_max = float(mu.positions[0]), float(mu.positions[-1])
    npos = nu.positions
    if np.any((npos > x_min - POSITION_TOL) & (npos < x_max + POSITION_TOL)):
        return None
    below = npos[npos <= x_min - POSITION_TOL]
    above = npos[npos >= x_max + POSITION_TOL]
    a = float(below.max()) if len(below) else x_min - 1.0
    b = float(above.min()) if len(above) else x_max + 1.0
    return SeparationInterval(a, b)


def coupling_matrix(pi: Coupling, mu: DiscreteMeasure,
                    nu: DiscreteMeasure) -> np.ndarray:
    """Dense (len(mu), len(nu)) matrix of entry masses, indexed by atom.

    Each entry is credited to its nearest source and target atoms
    (`nearest_atom`); an entry with no atom within POSITION_TOL on either
    side raises InputError.
    """
    if pi.dim != mu.dim or pi.dim != nu.dim:
        raise InputError("dimension mismatch")
    rows = nearest_atom(mu.positions, pi.xs)
    cols = nearest_atom(nu.positions, pi.ys)
    stray = (rows < 0) | (cols < 0)
    if stray.any():
        k = int(np.argmax(stray))
        raise InputError(f"coupling entry ({pi.xs[k]}, {pi.ys[k]}) is not "
                         "at a pair of marginal atoms")
    mat = np.zeros((len(mu), len(nu)))
    np.add.at(mat, (rows, cols), pi.masses)
    return mat


# ---------------------------------------------------------------------------
# Serialization: coupling JSON and transport-map CSV
# ---------------------------------------------------------------------------

def coupling_to_dict(pi: Coupling, cost_value=None, maps: TransportMaps | None = None):
    doc = {"entries": [[float(x), float(y), float(w)] for x, y, w in
                       zip(pi.xs, pi.ys, pi.masses)]}
    doc["cost"] = None if cost_value is None else float(cost_value)
    doc["maps"] = None if maps is None else maps.as_rows()
    return doc


def coupling_from_dict(doc: dict):
    try:
        entries = doc["entries"]
        pi = Coupling.from_entries(entries) if entries else Coupling(
            np.zeros(0), np.zeros(0), np.zeros(0))
        maps = None
        if doc.get("maps"):
            maps = TransportMaps(*np.asarray(doc["maps"], dtype=float).T)
        return pi, doc.get("cost"), maps
    except InputError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"malformed coupling document: {exc}") from exc


def write_coupling_json(path, pi: Coupling, cost_value=None,
                        maps: TransportMaps | None = None, extra: dict | None = None):
    doc = coupling_to_dict(pi, cost_value, maps)
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def read_coupling_json(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read coupling {path}: {exc}") from exc
    return coupling_from_dict(doc)


def write_maps_csv(path, maps: TransportMaps):
    with open(path, "w") as fh:
        fh.write("x,S,T,lambda_minus,lambda_plus\n")
        for row in maps.as_rows():
            fh.write(",".join(repr(v) for v in row) + "\n")
