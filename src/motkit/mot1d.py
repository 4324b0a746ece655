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
barycenter. The split is found by bisection: the consumed moment is piecewise
linear and strictly decreasing in the mass routed to the lower side. The
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
BISECT_WIDTH = 1e-14
MAX_BISECT = 200


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

    def rows(self):
        """Group entries by source atom: list of (x, target array, mass array).

        Sources of one `group_atoms` group form one row, ordered by source;
        x is the row's smallest source and entries are sorted by (x, y).
        """
        if len(self) == 0:
            return []
        n = len(self)
        labels = group_atoms(self.xs)
        order = np.lexsort((*self.ys.reshape(n, -1).T[::-1],
                            *self.xs.reshape(n, -1).T[::-1], labels))
        xs, ys, w = self.xs[order], self.ys[order], self.masses[order]
        breaks = np.flatnonzero(np.diff(labels[order])) + 1
        out = []
        for idx in np.split(np.arange(len(xs)), breaks):
            x = float(xs[idx[0]]) if self.dim == 1 else xs[idx[0]]
            out.append((x, ys[idx], w[idx]))
        return out

    def reflect(self) -> "Coupling":
        """Image under (x, y) -> (-x, -y)."""
        return Coupling(-self.xs, -self.ys, self.masses, self.dim)


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
    """One consumption frontier over nu atoms listed in consumption order."""

    __slots__ = ("pos", "w", "idx", "rem", "snap", "boundary")

    def __init__(self, pos, w, snap, boundary):
        self.pos = np.asarray(pos, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.idx = 0
        self.rem = float(self.w[0]) if len(self.w) else 0.0
        self.snap = snap
        self.boundary = float(boundary)

    def remaining(self) -> float:
        if self.idx >= len(self.w):
            return 0.0
        return self.rem + float(self.w[self.idx + 1:].sum())

    def walk(self, need: float, commit: bool):
        """Consume `need` from the frontier; returns (moment, takes).

        takes is a list of (atom index, consumed mass). Residual atom slivers
        within `snap` are absorbed so exact exhaustions stay exact.
        """
        j, r = self.idx, self.rem
        pos, w, snap = self.pos, self.w, self.snap
        moment = 0.0
        takes = []
        while need > snap and j < len(w):
            if r <= 0.0:
                j += 1
                if j >= len(w):
                    break
                r = float(w[j])
                continue
            take = r if r <= need else need
            if r - take <= snap:
                take = r
            takes.append((j, take))
            moment += take * pos[j]
            need -= take
            r -= take
        if commit:
            self.idx, self.rem = j, r
        return moment, takes

    def map_state(self):
        """(deepest consumed atom, consumed fraction) after the last commit."""
        j, r = self.idx, self.rem
        if len(self.w) == 0:
            return self.boundary, 0.0
        if j >= len(self.w):
            return float(self.pos[-1]), 1.0
        if r <= 0.0:
            return float(self.pos[j]), 1.0
        if r >= self.w[j]:
            if j == 0:
                return self.boundary, 0.0
            return float(self.pos[j - 1]), 1.0
        return float(self.pos[j]), 1.0 - r / float(self.w[j])


def _split_nu(nu: DiscreteMeasure, interval: SeparationInterval):
    """nu atoms at or below a / at or above b, each in consumption order."""
    pos, w = nu.positions, nu.masses
    inside = (pos > interval.a) & (pos < interval.b)
    if inside.any():
        raise SeparationError(
            f"nu has mass inside the separation interval at {pos[inside][:3]}")
    low = pos <= interval.a
    lo_order = np.argsort(pos[low])[::-1]      # largest atom <= a first
    hi_order = np.argsort(pos[~low])[::-1]     # largest atom first, toward b
    return (pos[low][lo_order], w[low][lo_order],
            pos[~low][hi_order], w[~low][hi_order])


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
    lo_pos, lo_w, hi_pos, hi_w = _split_nu(nu, interval)
    report = convex_order_check(mu, nu, tol=max(tol, MASS_TOL))
    if not report.in_order:
        raise NotInConvexOrderError(
            f"marginals not in convex order (worst gap {report.worst_gap:.3e} "
            f"at k={report.worst_k:.6g})", report=report)
    snap = SNAP_FRACTION * max(1.0, nu.total_mass())
    lower = _Frontier(lo_pos, lo_w, snap, interval.a)
    upper = _Frontier(hi_pos, hi_w, snap, interval.b)
    pos_scale = max(1.0, float(np.abs(nu.positions).max(initial=0.0)))

    ent_x, ent_y, ent_w = [], [], []
    map_rows = []

    for x, m in zip(mu.positions, mu.masses):
        x = float(x)
        m = float(m)
        r_lo, r_hi = lower.remaining(), upper.remaining()
        lo_b = max(0.0, m - r_hi)
        hi_b = min(m, r_lo)
        if lo_b > hi_b:
            if lo_b - hi_b > tol * max(1.0, m):
                raise SolverFailureError(
                    f"remaining nu mass cannot cover mu atom at x={x:.6g}",
                    residual=lo_b - hi_b)
            lo_b = hi_b

        def moment_gap(rho: float) -> float:
            mom_lo, _ = lower.walk(rho, commit=False)
            mom_hi, _ = upper.walk(m - rho, commit=False)
            return mom_lo + mom_hi - m * x

        g_lo = moment_gap(lo_b)
        g_hi = moment_gap(hi_b)
        if g_lo <= 0.0:
            rho, resid = lo_b, g_lo
        elif g_hi >= 0.0:
            rho, resid = hi_b, g_hi
        else:
            a_, b_ = lo_b, hi_b
            width = BISECT_WIDTH * max(1.0, m)
            rho = None
            for _ in range(MAX_BISECT):
                if b_ - a_ <= width:
                    break
                mid = 0.5 * (a_ + b_)
                gm = moment_gap(mid)
                if gm == 0.0:
                    rho = mid    # exactly representable root
                    break
                if gm > 0.0:
                    a_ = mid
                else:
                    b_ = mid
            if rho is None:
                rho = 0.5 * (a_ + b_)
            resid = moment_gap(rho)

        allowed = tol * max(1.0, m * pos_scale)
        if abs(resid) > allowed:
            raise SolverFailureError(
                f"row barycenter residual {resid:.3e} exceeds {allowed:.3e} "
                f"at x={x:.6g}", residual=resid)

        _, takes_lo = lower.walk(rho, commit=True)
        _, takes_hi = upper.walk(m - rho, commit=True)
        for j, take in takes_lo:
            ent_x.append(x)
            ent_y.append(float(lo_pos[j]))
            ent_w.append(take)
        for j, take in takes_hi:
            ent_x.append(x)
            ent_y.append(float(hi_pos[j]))
            ent_w.append(take)
        s_val, s_frac = lower.map_state()
        t_val, t_frac = upper.map_state()
        map_rows.append((x, s_val, t_val, s_frac, t_frac))

    leftover = lower.remaining() + upper.remaining()
    imbalance = abs(nu.total_mass() - mu.total_mass())
    if leftover > tol * (len(mu) + len(nu)) + imbalance:
        raise SolverFailureError(
            f"nu mass left unconsumed after sweep: {leftover:.3e}",
            residual=leftover)

    pi = Coupling(np.asarray(ent_x), np.asarray(ent_y), np.asarray(ent_w))
    cols = np.asarray(map_rows, dtype=float).T
    maps = TransportMaps(cols[0], cols[1], cols[2], cols[3], cols[4])
    return pi, maps


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


def is_symmetric(m: DiscreteMeasure, tol: float = 1e-9) -> bool:
    """Atomwise symmetry about the origin (dim=1)."""
    if m.dim != 1:
        raise InputError("symmetry check supports dim=1")
    pos, w = m.positions, m.masses
    return bool(np.all(np.abs(pos + pos[::-1]) <= tol)
                and np.all(np.abs(w - w[::-1]) <= tol))


def reflection_residual(pi: Coupling) -> float:
    """Distance between a 1-D coupling and its reflection through 0."""
    if len(pi) == 0:
        return 0.0
    ref = pi.reflect()

    def sorted_entries(c):
        order = np.lexsort((c.ys, c.xs))
        return c.xs[order], c.ys[order], c.masses[order]

    x1, y1, w1 = sorted_entries(pi)
    x2, y2, w2 = sorted_entries(ref)
    if len(x1) != len(x2):
        return float(pi.total_mass())
    return float(max(np.abs(x1 - x2).max(), np.abs(y1 - y2).max(),
                     np.abs(w1 - w2).max()))


def symmetric_solve(mu: DiscreteMeasure, nu: DiscreteMeasure,
                    interval: SeparationInterval, tol: float = 1e-9) -> Coupling:
    """Sweep solve for origin-symmetric marginals; certifies the output
    coupling is invariant under (x, y) -> (-x, -y)."""
    if not (is_symmetric(mu, tol) and is_symmetric(nu, tol)):
        raise InputError("marginals are not symmetric about the origin")
    pi, _ = solve_sweep(mu, nu, interval, tol=tol)
    resid = reflection_residual(pi)
    if resid > max(tol, 1e-10):
        raise SolverFailureError(
            f"symmetric instance produced asymmetric coupling (residual {resid:.3e})",
            residual=resid)
    return pi


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
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


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
