"""The records, density quantization, convex order, common mass.

Conventions
-----------
A measure is a finite list of atoms (position, mass) with every mass > 0.
Positions are scalars for dim=1 (kept strictly increasing) or d-vectors for
dim>1 (kept in lexicographic order). A coupling is a list of entries
(source, target, mass), and a TransportMaps holds a sweep's frontier maps.
Every solver and checker shares these records, so they sit here under the
solvers: `lp` and `verify` import this module and `errors`, never `mot1d`.
A record holds read-only arrays of its own (`freeze`): an array its caller
passed is copied, never frozen in place.

One rule decides when two positions are the same atom, `same_atom`: their
max-abs distance is at most ``POSITION_TOL``. `group_atoms` applies it as a
chain rule; construction merges each group into one atom at the mass-weighted
mean position, so first moments survive the merge exactly, and coupling
rows group their sources the same way. `nearest_atom` credits each point to
the nearest atom within the tolerance, and never to two; the common-mass
split, separation detection, coupling matrices and validation match by it.

Convex order on the line is decided through call functions: with equal total
mass and equal mean, mu precedes nu iff the gap

    R(k) = integral (x-k)+ dnu - integral (x-k)+ dmu

is nonnegative for every real k. R is piecewise linear with kinks only at
atom positions, so evaluating it on the merged support is exact.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, MotkitError

POSITION_TOL = 1e-12   # absolute merge tolerance for atom positions
MASS_TOL = 1e-10       # default order-check tolerance, in `scale_of`'s units


def _as_rows(points) -> np.ndarray:
    """Positions as an (n, d) array; scalar positions become one column."""
    pts = np.asarray(points, dtype=float)
    return pts.reshape(len(pts), int(np.prod(pts.shape[1:])))


def freeze(record, **arrays):
    """Set each named attribute of the frozen dataclass `record` to its
    array, made read-only. An array that may share memory with the ndarray
    the caller passed is copied first, so the caller's stays its own."""
    for name, arr in arrays.items():
        given = getattr(record, name, None)
        shared = isinstance(given, np.ndarray) and np.may_share_memory(arr, given)
        if shared or arr is given:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def same_atom(a, b) -> np.ndarray:
    """The atom rule, row by row: whether the positions in each row of `a`
    and of `b` (broadcast; the last axis holds the coordinates) are one
    atom, their max-abs distance at most POSITION_TOL."""
    with np.errstate(over="ignore"):  # an infinite gap is not one atom
        return np.abs(np.subtract(a, b)).max(axis=-1) <= POSITION_TOL


def distance(a, b) -> np.ndarray:
    """Euclidean distance of each point of `a` from `b`, one point or one
    point per row (broadcast); the last axis holds the coordinates. On the
    line it is |a - b|. In R^d hypot combines the absolute gaps without
    squaring them: a point on one axis gets its gap exactly, and the
    distance overflows only where it passes the float range itself."""
    gap = np.abs(np.subtract(a, b))
    return gap[..., 0] if gap.shape[-1] == 1 else np.hypot.reduce(gap, axis=-1)


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """All pairs (k, i) with lo[k] <= i < hi[k], as two index arrays."""
    counts = hi - lo
    k = np.repeat(np.arange(len(lo)), counts)
    i = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    return k, i


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component (edges i[k]-j[k])."""
    lab = np.arange(n)
    while True:
        new = lab.copy()
        np.minimum.at(new, i, lab[j])
        np.minimum.at(new, j, lab[i])
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


# The atom index: two searches for candidate pairs, each tested by
# `same_atom`. Any pair within POSITION_TOL has first coordinates within the
# candidate window searched below; the window is twice as wide so rounding
# cannot drop a pair.

def group_atoms(points) -> np.ndarray:
    """Group label of each point under the chain rule.

    Points within POSITION_TOL of each other share a group, and so do chains
    of such points. Labels run 0..G-1 in lexicographic order of each group's
    first point; in one dimension they increase with the position.
    """
    pts = _as_rows(points)
    if len(pts) == 0:
        return np.zeros(0, dtype=np.intp)
    order = np.lexsort(pts.T[::-1])
    srt = pts[order]
    # exact repeats share a row of `uniq`, so they cost no candidate pairs
    fresh = np.concatenate(([True], np.any(srt[1:] != srt[:-1], axis=1)))
    uniq = srt[fresh]
    hi = np.searchsorted(uniq[:, 0], uniq[:, 0] + 2 * POSITION_TOL, side="right")
    i, j = _ranges(np.arange(1, len(uniq) + 1), hi)
    near = same_atom(uniq[i], uniq[j])
    comp = _components(len(uniq), i[near], j[near])
    labels = np.empty(len(pts), dtype=np.intp)
    labels[order] = np.unique(comp, return_inverse=True)[1][np.cumsum(fresh) - 1]
    return labels


def nearest_atom(atoms, points) -> np.ndarray:
    """Index of the atom nearest each point, or -1 where no atom lies within
    POSITION_TOL. Ties go to the lower atom index, so every point is
    credited to exactly one atom."""
    a, q = _as_rows(atoms), _as_rows(points)
    order = np.argsort(a[:, 0], kind="stable")
    key = a[order, 0]
    lo = np.searchsorted(key, q[:, 0] - 2 * POSITION_TOL, side="left")
    hi = np.searchsorted(key, q[:, 0] + 2 * POSITION_TOL, side="right")
    k, i = _ranges(lo, hi)
    cand = order[i]
    near = same_atom(q[k], a[cand])
    k, cand = k[near], cand[near]
    dist = np.abs(q[k] - a[cand]).max(axis=1)
    best = np.lexsort((cand, dist, k))
    k, cand = k[best], cand[best]
    first = np.diff(k, prepend=-1) != 0
    out = np.full(len(q), -1, dtype=np.intp)
    out[k[first]] = cand[first]
    return out


def _merge_groups(positions: np.ndarray, masses: np.ndarray):
    """One atom per group of `group_atoms`, at the mass-weighted mean of its
    members, in lexicographic order. Lone atoms, and groups whose members
    share one exact position, keep that position. The mean is taken about
    the group's first member, so mass times position is never formed; a
    merged mass beyond the float range raises InputError."""
    rows = _as_rows(positions)
    labels = group_atoms(rows)
    order = np.lexsort((*rows.T[::-1], labels))
    lab, pos, w = labels[order], rows[order], masses[order]
    starts = np.flatnonzero(np.diff(lab, prepend=-1))
    with np.errstate(over="ignore"):
        out_mass = np.add.reduceat(w, starts)
    if not np.isfinite(out_mass).all():
        raise InputError("a merged atom mass overflows the float range")
    first = pos[starts]
    offset = pos - first[lab]
    differ = np.logical_or.reduceat((offset != 0).any(axis=1), starts)
    mean = first + np.add.reduceat(w[:, None] * offset, starts) / out_mass[:, None]
    out_pos = np.where(differ[:, None], mean, first)
    final = np.lexsort(out_pos.T[::-1])
    return out_pos[final].reshape(-1, *positions.shape[1:]), out_mass[final]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure on R (dim=1) or R^d (dim>1).

    positions: shape (n,) for dim=1, (n, d) otherwise; masses: shape (n,),
    all strictly positive. The empty measure (n=0) is allowed so that
    common-mass residuals are representable.
    """

    positions: np.ndarray
    masses: np.ndarray
    dim: int = 1

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        w = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if self.dim == 1:
            if pos.ndim != 1:
                raise InputError("dim=1 measure needs scalar positions")
        else:
            pos = pos.reshape(-1, self.dim) if pos.size else pos.reshape(0, self.dim)
        if len(pos) != len(w):
            raise InputError("positions and masses must have equal length")
        if np.any(~np.isfinite(pos)) or np.any(~np.isfinite(w)):
            raise InputError("positions and masses must be finite")
        if np.any(w <= 0):
            raise InputError("every atom mass must be > 0")
        if len(pos):
            pos, w = _merge_groups(pos, w)
            with np.errstate(over="ignore"):  # the overflow is the error reported
                total = w.sum()
            if not np.isfinite(total):
                raise InputError("the total mass must be finite")
        freeze(self, positions=pos, masses=w)

    @classmethod
    def empty(cls, dim: int = 1) -> "DiscreteMeasure":
        shape = (0,) if dim == 1 else (0, dim)
        return cls(np.zeros(shape), np.zeros(0), dim)

    def __len__(self) -> int:
        return len(self.masses)

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def mean(self):
        """Mass-weighted mean position (0 for the empty measure)."""
        if len(self) == 0:
            return 0.0 if self.dim == 1 else np.zeros(self.dim)
        m = np.dot(self.masses, self.positions) / self.masses.sum()
        return float(m) if self.dim == 1 else m

    def atoms(self):
        return list(zip(self.positions, self.masses))

    def points(self) -> np.ndarray:
        """The positions as an (n, dim) view."""
        return self.positions.reshape(len(self), self.dim)


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

    def __len__(self) -> int:
        return len(self.masses)

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
        each row in it, read-only and sorted once per record. A row is one
        `group_atoms` group of the sources, and rows are ordered by source,
        so a row's first entry holds its smallest source."""
        if not hasattr(self, "_order"):
            xs, ys = self.points()
            labels = group_atoms(xs)
            order = np.lexsort((*ys.T[::-1], *xs.T[::-1], labels))
            freeze(self, _order=order,
                   _starts=np.flatnonzero(np.diff(labels[order], prepend=-1)))
        return self._order, self._starts


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
        if len({len(arr) for arr in columns.values()}) > 1:
            raise InputError("map columns must share length")
        freeze(self, **columns)

    def __len__(self) -> int:
        return len(self.xs)

    def columns(self):
        return self.xs, self.lower, self.upper, self.lower_frac, self.upper_frac


@dataclass(frozen=True)
class GridDensity:
    """Piecewise-constant density on [lo, hi] split into n equal cells."""

    lo: float
    hi: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.hi > self.lo):
            raise InputError("need finite hi > lo")
        if self.n < 1 or len(vals) != self.n:
            raise InputError(f"values must have length n={self.n}")
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise InputError("density values must be finite and >= 0")
        if vals.sum() <= 0:
            raise InputError("grid density has zero total mass")
        freeze(self, values=vals)

    def _half_width(self) -> float:
        # the ends are halved first, as lo + hi and hi - lo may pass the float
        # range; halving is exact, so at normal scales no bit changes
        return (0.5 * self.hi - 0.5 * self.lo) / self.n

    @property
    def cell_width(self) -> float:
        return 2 * self._half_width()

    def midpoints(self) -> np.ndarray:
        # centered form: exactly antisymmetric midpoints on symmetric grids
        center = 0.5 * self.lo + 0.5 * self.hi
        offsets = 2 * np.arange(self.n) + 1 - self.n
        return center + offsets * self._half_width()

    def total_mass(self) -> float:
        return float(self.values.sum() * self.cell_width)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a convex-order check between two 1-D measures.

    The call-function gap often ties at its minimum up to rounding: on a
    separated pair it is exactly 0 at and beyond both ends of the support.
    So worst_k is the leftmost strike whose gap is within the check's tol
    (times M * L) of the minimum, and worst_gap is the minimum itself.
    """

    in_order: bool
    mass_gap: float      # nu total mass - mu total mass
    mean_gap: float      # nu first moment - mu first moment
    worst_k: float       # leftmost k whose gap is within tol of worst_gap
    worst_gap: float     # minimal call-function gap (negative = dominance violated)
    mass_unit: float     # units of `scale_of`: masses are held to tol * M,
    length_unit: float   # first moments and call gaps to tol * M * L

    def to_dict(self) -> dict:
        return {
            "in_order": self.in_order,
            "mass_gap": self.mass_gap,
            "mean_gap": self.mean_gap,
            "worst_k": self.worst_k,
            "worst_gap": self.worst_gap,
        }

    def failure(self, tol: float) -> str:
        """The first condition that fails at `tol`: mass, mean or call gap."""
        for name, gap, unit in (("mass", self.mass_gap, self.mass_unit),
                                ("mean", self.mean_gap, self.mass_unit * self.length_unit)):
            if abs(gap) > tol * unit:
                return f"{name} gap {gap:.3e} exceeds tol {tol * unit:.1e}"
        return f"call-function gap {self.worst_gap:.3e} at k={self.worst_k:.6g}"


def quantize(g: GridDensity) -> DiscreteMeasure:
    """Collapse each grid cell to one atom at its midpoint.

    The midpoint is the conditional mean of a constant-density cell, so total
    mass and mean are preserved exactly. Zero-mass cells produce no atom.
    """
    masses = g.values * g.cell_width
    if masses.sum() <= 0:
        raise InputError("grid density has zero total mass")
    keep = masses > 0
    return DiscreteMeasure(g.midpoints()[keep], masses[keep], dim=1)


def call_function(m: DiscreteMeasure, ks) -> np.ndarray:
    """integral (x-k)+ dm for each strike k: s1[i] - (k - c) s0[i], with i
    the first atom above k, s0/s1 suffix sums of w and w (x - c), and c the
    mean so that large offsets do not cancel. O((n + len(ks)) log n)."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if len(m) == 0:
        return np.zeros(len(ks))
    c = m.mean()
    s0 = np.append(np.cumsum(m.masses[::-1])[::-1], 0.0)
    s1 = np.append(np.cumsum((m.masses * (m.positions - c))[::-1])[::-1], 0.0)
    i = np.searchsorted(m.positions, ks, side="right")
    return s1[i] - (ks - c) * s0[i]


def scale_of(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The units (M, centre, L) of every gate: mu's mass, mu's mean and
    max(1, the largest coordinate distance of an atom from it), floored as
    POSITION_TOL is absolute; (1, 0, 1) if mu is empty."""
    if len(mu) == 0:
        return 1.0, 0.0, 1.0
    mass = mu.total_mass()
    xpos, ypos = mu.points(), nu.points()
    centre = (mu.masses / mass) @ xpos
    return mass, centre, max(1.0, float(np.abs(xpos - centre).max()),
                             float(np.abs(ypos - centre).max(initial=0.0)))


def convex_order_check(mu: DiscreteMeasure, nu: DiscreteMeasure,
                       tol: float = MASS_TOL, scale=None) -> OrderReport:
    """Decide whether mu precedes nu in convex order (1-D only).

    Checks equal mass, equal mean, and call-function dominance at every kink
    of the piecewise-linear gap, i.e. at every atom position of either
    measure. That finite set is exhaustive for atomic measures. The units
    M and L are `scale`'s, by default `scale_of(mu, nu)`.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise InputError("convex order check requires dim=1 measures")
    mass_unit, _, length_unit = scale or scale_of(mu, nu)
    mass_tol, moment_tol = tol * mass_unit, tol * mass_unit * length_unit
    mass_gap = nu.total_mass() - mu.total_mass()
    ks = np.union1d(mu.positions, nu.positions)
    if len(ks) == 0:
        return OrderReport(True, mass_gap, 0.0, 0.0, 0.0, mass_unit, length_unit)
    # first moments about a common centre, summed exactly, so that a large
    # common offset of the positions does not cancel in the difference
    c = float(ks[len(ks) // 2])
    mean_gap = (math.fsum(np.concatenate([nu.masses * (nu.positions - c),
                                          -mu.masses * (mu.positions - c)]))
                + c * math.fsum(np.concatenate([nu.masses, -mu.masses])))
    gaps = call_function(nu, ks) - call_function(mu, ks)
    worst_gap = float(gaps.min())
    worst = int(np.argmax(gaps <= worst_gap + moment_tol))
    in_order = (abs(mass_gap) <= mass_tol and abs(mean_gap) <= moment_tol
                and worst_gap >= -moment_tol)
    return OrderReport(bool(in_order), mass_gap, mean_gap, float(ks[worst]), worst_gap,
                       mass_unit, length_unit)


def common_mass_split(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Split into (common, mu_bar, nu_bar) with common = pointwise min.

    Each mu atom is matched to its nearest nu atom (`nearest_atom`); a nu
    atom matched by several mu atoms serves them in order. The common part
    sits at the mu positions. The residuals satisfy mu = common + mu_bar and
    nu = common + nu_bar in mass, and no residual atom of one lies within
    POSITION_TOL of a residual atom of the other.
    """
    if mu.dim != nu.dim:
        raise InputError("measures must share the same dim")
    dim = mu.dim
    mu_w, nu_w = mu.masses.copy(), nu.masses.copy()
    common_w = np.zeros(len(mu))
    match = nearest_atom(nu.positions, mu.positions)
    for i in np.flatnonzero(match >= 0):
        c = min(mu_w[i], nu_w[match[i]])
        common_w[i] = c
        mu_w[i] -= c
        nu_w[match[i]] -= c

    def part(pos, w):
        keep = w > 0
        return DiscreteMeasure(pos[keep], w[keep], dim) if keep.any() \
            else DiscreteMeasure.empty(dim)

    return part(mu.positions, common_w), part(mu.positions, mu_w), \
        part(nu.positions, nu_w)


# ---------------------------------------------------------------------------
# Marginal spec files: {"mu": M, "nu": M} with M either
#   {"type": "discrete", "atoms": [[pos, mass], ...]}
#   {"type": "grid", "lo": a, "hi": b, "n": n, "values": [...]}
# ---------------------------------------------------------------------------

def spec_numbers(value, name: str, width: int | None = None) -> np.ndarray:
    """A spec file's list of JSON numbers as floats or, with `width`, its
    list of rows of exactly `width` numbers as an (n, width) array. Every
    reader of marginal, radial and coupling files takes its numbers here:
    a string, a boolean, null or a row of another length is an InputError,
    not a number."""
    if type(value) is not list:
        raise InputError(f"{name} must be a list, got {value!r}")
    items = value
    if width is not None:
        if not (set(map(type, value)) <= {list} and set(map(len, value)) <= {width}):
            bad = next(row for row in value if type(row) is not list or len(row) != width)
            raise InputError(f"each of {name} must be {width} numbers, got {bad!r}")
        items = list(itertools.chain.from_iterable(value))
    # the JSON decoder gives int and float for numbers; bool is a type of its own
    if not set(map(type, items)) <= {int, float}:
        bad = next(v for v in items if type(v) not in (int, float))
        raise InputError(f"{name} must hold numbers only, got {bad!r}")
    try:
        numbers = np.array(items, dtype=float)
    except OverflowError as exc:
        raise InputError(f"{name}: {exc}") from None
    return numbers if width is None else numbers.reshape(len(value), width)


def parse_int(value, name: str) -> int:
    """An integral spec-file number; a fractional one is an error, not cut."""
    number = float(spec_numbers([value], name)[0])
    if not number.is_integer():
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(number)


def read_spec(path, what: str, parse):
    """parse(document) of the JSON file at `path`: the one reader of
    marginal, radial and coupling files. A MotkitError from `parse` passes
    through; a file that cannot be opened, decoded or parsed, and a document
    of the wrong shape (a missing key, a list for an object, nesting past
    the recursion limit) are an InputError naming `what` and `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except MotkitError:
        raise
    except (OSError, ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InputError(f"cannot read {what} {path}: {detail}") from exc


def check_first_moment(positions, masses):
    """Refuse a measure read from a file whose sum of mass times |position|
    overflows: the order check and the solvers sum first moments. A measure
    built in code may hold one (its atoms merge without forming them)."""
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.abs(positions).T @ masses).all()
    if not finite:
        raise InputError("the sum of mass times position must be finite")


def _marginal_from_dict(d: dict) -> DiscreteMeasure:
    kind = d["type"]
    if kind == "discrete":
        atoms = spec_numbers(d["atoms"], "atoms", 2)
        m = DiscreteMeasure(atoms[:, 0], atoms[:, 1])
    elif kind == "grid":
        lo, hi = spec_numbers([d["lo"], d["hi"]], "grid lo and hi")
        m = quantize(GridDensity(float(lo), float(hi), parse_int(d["n"], "grid n"),
                                 spec_numbers(d["values"], "grid values")))
    else:
        raise InputError(f"unknown marginal type {kind!r}")
    check_first_moment(m.positions, m.masses)
    return m


def load_marginal_pair(path):
    """(mu, nu) of a marginal spec file as discrete measures; a grid
    marginal is quantized, one atom at each cell's midpoint."""
    return read_spec(path, "marginal spec",
                     lambda doc: (_marginal_from_dict(doc["mu"]),
                                  _marginal_from_dict(doc["nu"])))


def as_discrete(m) -> DiscreteMeasure:
    """Quantize grid marginals; pass discrete ones through. The reader
    quantizes already, so a measure it returns passes through unchanged."""
    if isinstance(m, GridDensity):
        return quantize(m)
    return m
