"""Martingale coupling of separated 1-D marginals by a frontier sweep.

Setting, which `pipeline.solve` alone decides: mu carries all its mass inside
an open interval I = (a, b) while nu carries none there, the totals and means
agree, and mu precedes nu in convex order. The optimal martingale coupling
for cost |x-y|^p, any 0 < p <= 1, is then unique and has a closed structure:
scanning the mu atoms left to right, each atom splits its mass between two
moving frontiers,

  * the lower frontier, consuming nu-mass on (-inf, a] starting at the
    largest such atom and moving down,
  * the upper frontier, consuming nu-mass on [b, inf) starting at the
    largest atom and moving down toward b,

with the split chosen so the consumed first moment matches the atom's
barycenter. The construction never reads p, which is the point: the
optimizer is the same for every exponent in (0, 1].

Consumption along each frontier is contiguous, so the rows do not have to be
walked in turn. With M_i and X_i the prefix mass and first moment of mu, the
lower frontier's total consumption L_i after rows 1..i is the root of

    MomL(L) + MomU(M_i - L) = X_i,

with MomL, MomU the consumed moments of each frontier, piecewise linear in
its prefix sums with a kink at every atom. The left side strictly decreases
in L, so all L_i are solved at once, exactly, by bisecting on the kinks and
solving one linear piece. Row i takes what lies between L_{i-1} and L_i
(and between the matching upper consumptions), so each source atom reaches
one or two nu atoms per side and the frontier maps are nonincreasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverFailureError
# convex_order_check is not called here; perfbench/tracing.py's PATCHES rebinds it
from .measures import (DiscreteMeasure, _ranges, convex_order_check,  # noqa: F401
                       distance, freeze, group_atoms, nearest_atom, read_spec,
                       scale_of, spec_numbers)

# Remaining atom slivers below this fraction of the total mass are absorbed
# by the frontier consumptions, so exact-exhaustion roots do not leave dust
# atoms, and a row's take below it is not made.
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
            xs, ys = xs.reshape(-1, self.dim), ys.reshape(-1, self.dim)
        if len(xs) != len(w) or len(ys) != len(w):
            raise InputError("entry arrays must share length")
        if np.any(w <= 0) or np.any(~np.isfinite(w)):
            raise InputError("entry masses must be positive and finite")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise InputError("entry positions must be finite")
        freeze(self, xs=xs, ys=ys, masses=w)

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

    def points(self):
        """The sources and the targets, each as an (n, dim) view."""
        n = len(self)
        return self.xs.reshape(n, self.dim), self.ys.reshape(n, self.dim)

    def source_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.xs, self.masses, self.dim)

    def target_marginal(self) -> DiscreteMeasure:
        return DiscreteMeasure(self.ys, self.masses, self.dim)

    def row_segments(self):
        """Sort order of the entries by (row, x, y) and the first position of
        each row in it. A row is one `group_atoms` group of the sources, and
        rows are ordered by source, so a row's first entry holds its
        smallest source."""
        xs, ys = self.points()
        labels = group_atoms(xs)
        order = np.lexsort((*ys.T[::-1], *xs.T[::-1], labels))
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
        columns = {name: np.asarray(getattr(self, name), dtype=float)
                   for name in ("xs", "lower", "upper", "lower_frac", "upper_frac")}
        if not all(np.isfinite(arr).all() for arr in columns.values()):
            raise InputError("map values must be finite")
        freeze(self, **columns)
        n = len(self.xs)
        if any(len(getattr(self, f)) != n
               for f in ("lower", "upper", "lower_frac", "upper_frac")):
            raise InputError("map columns must share length")

    def __len__(self) -> int:
        return len(self.xs)

    def columns(self):
        return self.xs, self.lower, self.upper, self.lower_frac, self.upper_frac


def _frontiers(nu: DiscreteMeasure, interval: SeparationInterval, c: float):
    """Frontiers over the nu atoms at or below a and at or above b, each
    listed from its largest atom down: positions, masses, and prefix sums
    of mass and of the first moment about c."""
    pos, w = nu.positions, nu.masses
    sides = []
    for keep in (pos <= interval.a, pos >= interval.b):
        p, q = pos[keep][::-1], w[keep][::-1]
        sides.append((p, q, np.concatenate(([0.0], np.cumsum(q))),
                      np.concatenate(([0.0], np.cumsum(q * (p - c))))))
    return sides


def _bisect(lo, hi, holds):
    """Per row, the largest i in [lo, hi) with holds(i), where holds is
    monotone, true at lo and false at hi: ceil(log2(max(hi - lo))) passes."""
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = holds(mid) & (hi - lo > 1)
        lo, hi = np.where(ok, mid, lo), np.where(ok | (hi - lo <= 1), hi, mid)
    return lo


def _lower_masses(M, X, lb, ub, lower, upper, c):
    """L in [lb, ub] solving MomL(L) + MomU(M - L) = X per row (moments about
    c). The gap F is piecewise linear with slope pos_lower - pos_upper < 0:
    a bisection on the lower kinks, then one on the upper kinks, finds the
    piece holding the root, where F is linear. Roots are clipped to [lb, ub].
    """
    L = lb.copy()
    r = np.flatnonzero(lb < ub)      # both frontiers hold mass on these rows
    M, X, lb, ub = M[r], X[r], lb[r], ub[r]
    (pl, _, cl, mom_l), (pu, _, cu, mom_u) = lower, upper

    def gap(t, j, k=None):
        if k is None:
            k = np.minimum(np.searchsorted(cu, M - t, side="right") - 1, len(pu) - 1)
        return (mom_l[j] + (t - cl[j]) * (pl[j] - c)
                + mom_u[k] + (M - t - cu[k]) * (pu[k] - c) - X)

    j = _bisect(np.searchsorted(cl, lb, side="right") - 1,
                np.searchsorted(cl, ub, side="left"), lambda i: gap(cl[i], i) > 0)
    A, B = np.maximum(cl[j], lb), np.minimum(cl[j + 1], ub)
    k = _bisect(np.minimum(np.searchsorted(cu, M - B, side="right") - 1, len(pu) - 1),
                np.minimum(np.searchsorted(cu, M - A, side="left"), len(pu)),
                lambda i: gap(M - cu[i], j, i) <= 0)
    A, B = np.maximum(A, M - cu[k + 1]), np.minimum(B, M - cu[k])
    L[r] = np.clip(A + gap(A, j, k) / (pu[k] - pl[j]), A, B)
    return L


def _commit(t, cum, snap):
    """Cumulative consumptions as taken. Each ends on the first kink within
    snap of it, as the row walk's consumption did, so no atom keeps a
    sliver; a step of at most snap between points off the kinks is not
    taken, and its mass goes with the next step that is."""
    kink = cum[np.minimum(np.searchsorted(cum, t - snap), len(cum) - 1)]
    t = np.maximum.accumulate(np.where(np.abs(kink - t) <= snap, kink, t))
    return np.maximum.accumulate(np.where(np.diff(t, prepend=0.0) > snap, t, 0.0))


def _takes(t, side):
    """Entries of one frontier when row i consumes (t[i-1], t[i]]: row, atom
    position and mass, in row then consumption order. An atom taken whole
    carries its own mass."""
    pos, w, cum, _ = side
    start = np.concatenate(([0.0], t[:-1]))
    first = np.searchsorted(cum, start, side="right") - 1
    row, atom = _ranges(first, np.where(t > start, np.searchsorted(cum, t), first))
    lo, hi = start[row], t[row]
    whole = (lo <= cum[atom]) & (cum[atom + 1] <= hi)
    mass = np.where(whole, w[atom],
                    np.minimum(hi, cum[atom + 1]) - np.maximum(lo, cum[atom]))
    return row, pos[atom], mass


def _map_state(t, side, boundary):
    """(deepest consumed atom, its consumed fraction) at each consumption t:
    the boundary and 0 before the first atom, fraction 1 on a kink."""
    pos, w, cum, _ = side
    j = np.searchsorted(cum, t, side="right") - 1
    part = t > cum[j]
    frac = np.where(part, (t - cum[j]) / np.append(w, 1.0)[j], (j > 0) * 1.0)
    return np.concatenate(([boundary], pos))[j + part], frac


def solve_sweep(mu: DiscreteMeasure, nu: DiscreteMeasure,
                interval: SeparationInterval, tol: float = 1e-9, scale=None):
    """Construct the optimal martingale coupling of a separated instance.

    Returns (Coupling, TransportMaps). `pipeline.solve` establishes the
    preconditions: 1-D, mu nonempty and inside the open interval, no nu atom
    in it, mu <= nu in convex order at `tol`. Raises only SolverFailureError
    (a row not covered, a row barycenter off its gate, or nu left over), in
    the units of `scale`, by default `scale_of(mu, nu)`.

    Rounding is absolute, not relative to a row: a row's entries are
    differences of prefix consumptions, which are as large as the total
    mass T, so every entry carries an error of a few ulps of T whatever
    the row's mass. Entries and row sums stay within 32 * eps * T of the
    row walk (8 * eps * T measured on a d = 3 ball against shells at 3000
    cells), and a row of mass m_i is exact only to about 32 * eps * T / m_i
    relative (3e-7 on that pair's lightest cell, 9e-10 of T = 3).
    """
    snap = SNAP_FRACTION * nu.total_mass()
    # moments about the interval's centre, so that a large common offset of
    # the positions does not cancel in the gap
    c = 0.5 * (interval.a + interval.b)
    lower, upper = _frontiers(nu, interval, c)
    mass_unit, _, length_unit = scale or scale_of(mu, nu)
    x, m = mu.positions, mu.masses
    tot_lo, tot_hi = lower[2][-1], upper[2][-1]

    # after rows 1..i: M, X the prefix mass and moment of mu, [lb, ub] the
    # lower consumptions that leave both frontiers able to cover M
    M = np.cumsum(m)
    lb, ub = np.maximum(0.0, M - tot_hi), np.minimum(M, tot_lo)
    short = lb - ub > tol * mass_unit
    if short.any():
        i = int(np.argmax(short))
        raise SolverFailureError(
            f"remaining nu mass cannot cover mu atom at x={x[i]:.6g}",
            residual=float(lb[i] - ub[i]))
    L = _lower_masses(M, np.cumsum(m * (x - c)), np.minimum(lb, ub), ub,
                      lower, upper, c)
    L_taken = _commit(L, lower[2], snap)
    U_taken = _commit(np.clip(M - L, 0.0, tot_hi), upper[2], snap)
    row, ys, ws = (np.concatenate(parts) for parts in
                   zip(_takes(L_taken, lower), _takes(U_taken, upper)))

    # the row barycenter residual sum w (y - x), as `validate_coupling` has it
    resid = np.bincount(row, ws * (ys - x[row]), len(m))
    allowed = tol * mass_unit * length_unit
    bad = np.abs(resid) > allowed
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverFailureError(
            f"row barycenter residual {resid[i]:.3e} exceeds {allowed:.3e} "
            f"at x={x[i]:.6g}", residual=float(resid[i]))

    leftover = (tot_lo - L_taken[-1]) + (tot_hi - U_taken[-1])
    imbalance = abs(nu.total_mass() - mu.total_mass())
    if leftover > tol * mass_unit + imbalance:
        raise SolverFailureError(
            f"nu mass left unconsumed after sweep: {leftover:.3e}",
            residual=leftover)

    order = np.argsort(row, kind="stable")   # a row's lower takes first
    pi = Coupling(x[row[order]], ys[order], ws[order])
    s_val, s_frac = _map_state(L_taken, lower, interval.a)
    t_val, t_frac = _map_state(U_taken, upper, interval.b)
    return pi, TransportMaps(x, s_val, t_val, s_frac, t_frac)


def cost(pi: Coupling, p: float) -> float:
    """Transport cost sum(mass * |x-y|^p), |x-y| by `measures.distance`."""
    if not 0.0 < p < np.inf:
        raise InputError(f"cost exponent p={p} must be positive and finite")
    return float(np.dot(pi.masses, distance(*pi.points()) ** p))


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

    The hull of supp(mu) must be free of nu atoms, and no nu atom may be one
    atom with mu's first or last atom (`nearest_atom`); the interval then
    extends to the adjacent nu atoms on each side.
    """
    if len(mu) == 0:
        return None
    x_min, x_max = float(mu.positions[0]), float(mu.positions[-1])
    npos = nu.positions
    if (np.any((npos > x_min) & (npos < x_max))
            or np.any(nearest_atom(npos, mu.positions[[0, -1]]) >= 0)):
        return None
    below, above = npos[npos < x_min], npos[npos > x_max]
    a = float(below.max()) if len(below) else x_min - 1.0
    b = float(above.min()) if len(above) else x_max + 1.0
    return SeparationInterval(a, b)


def coupling_matrix(pi: Coupling, mu: DiscreteMeasure,
                    nu: DiscreteMeasure) -> np.ndarray:
    """Dense (len(mu), len(nu)) matrix of entry masses, indexed by atom.

    Each entry is credited to its nearest source and target atoms
    (`nearest_atom`); an entry whose source or target matches no atom
    raises InputError.
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
# Serialization: coupling JSON, transport-map CSV and induced-marginal CSV
# ---------------------------------------------------------------------------

def _json_rows(fh, columns):
    """Write the rows of the float columns as json.dumps writes a list of
    lists of floats."""
    # the writers import floattext when they run: a command that writes no
    # floats does not compile it
    from .floattext import text_rows
    fh.write(b"[")
    fh.writelines(text_rows(columns, b"[", b", ", b"]", b", "))
    fh.write(b"]")


def write_coupling_json(path, pi: Coupling, cost_value=None,
                        maps: TransportMaps | None = None, extra: dict | None = None):
    """Write {"cost", "entries", "maps"} and the `extra` keys with the bytes
    of json.dumps(doc, sort_keys=True) and a newline. cost and `extra` go
    through json.dumps; the entries [x, y, w] and the map rows are built by
    `floattext.text_rows`."""
    if pi.dim != 1:
        raise InputError("coupling JSON holds 1-D couplings")
    doc = {"cost": None if cost_value is None else float(cost_value), **(extra or {})}
    with open(path, "wb") as fh:
        for i, key in enumerate(sorted({*doc, "entries", "maps"})):
            fh.write(f"{', ' if i else '{'}{json.dumps(key)}: ".encode())
            if key in doc:
                fh.write(json.dumps(doc[key], sort_keys=True).encode())
            elif key == "entries":
                _json_rows(fh, (pi.xs, pi.ys, pi.masses))
            elif maps is None:
                fh.write(b"null")
            else:
                _json_rows(fh, maps.columns())
        fh.write(b"}\n")


def _coupling_from_dict(doc: dict):
    pi = Coupling(*spec_numbers(doc["entries"], "entries", 3).T.copy())
    maps = None
    if doc.get("maps"):
        maps = TransportMaps(*spec_numbers(doc["maps"], "maps", 5).T)
    return pi, doc.get("cost"), maps


def read_coupling_json(path):
    """(coupling, cost, maps) of a coupling file; maps is None when absent."""
    return read_spec(path, "coupling", _coupling_from_dict)


def write_maps_csv(path, maps: TransportMaps):
    from .floattext import text_rows
    with open(path, "wb") as fh:
        fh.write(b"x,S,T,lambda_minus,lambda_plus\n")
        fh.writelines(text_rows(maps.columns(), b"", b",", b"\n"))


def write_induced_csv(path, pi: Coupling):
    """The source and target marginals of a 1-D coupling, one atom a line."""
    from .floattext import text_rows
    src, tgt = pi.source_marginal(), pi.target_marginal()
    with open(path, "wb") as fh:
        fh.write(b"marginal,position,mass\n")
        fh.writelines(text_rows((src.positions, src.masses), b"mu,", b",", b"\n"))
        fh.writelines(text_rows((tgt.positions, tgt.masses), b"nu,", b",", b"\n"))
