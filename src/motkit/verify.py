"""Structural verifiers for martingale couplings.

Three kinds of certificates:

* forbidden-configuration search: in an optimal 1-D coupling no source atom x
  may split to targets y- < y+ while another source x' couples to a target y'
  strictly between them with x' placed so the three-point swap

      t d(x,y-) + (1-t) d(x,y+) + d(x',y')
      ->  t d(x',y-) + (1-t) d(x',y+) + d(x,y')     (t y- + (1-t) y+ = y')

  strictly lowers cost. For concave |.|^p, 0 < p <= 1, that happens exactly
  in the two patterns  y- < x' < x <= y'  and  y' <= x < x' < y+.
  The search is output-sensitive: it flags the rows that hold a
  configuration with two box counts over all rows at once, O(n log^2 n) for
  n entries, and lists configurations pair by pair in flagged rows only.

* monotone frontier maps: the per-row deepest targets of a sweep solution
  must be nonincreasing in the source position, with repeats allowed only
  while the same partially consumed target atom is shared.

* circular deformation: sliding a symmetric mass pair along a circle toward
  the vertical axis strictly lowers the transport cost from an off-center
  point whenever h'(s)/s is strictly decreasing (h(s) = s^q, 0 < q < 2);
  at q = 2 the cost curve is exactly flat.

Per-row quantities (target bounds, barycenter residuals, target counts) are
segment reductions over one sort of the entries, `Coupling.row_segments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .measures import DiscreteMeasure, group_atoms, nearest_atom, scale_of
from .mot1d import Coupling, TransportMaps, check_exponent

DETECT_MASS_TOL = 1e-10
MAP_TOL = 1e-12            # `check_decreasing`, on map positions and fractions
FLAT_TOL = 1e-12           # `curve_is_constant`, on the cost's spread
TARGET_REL_TOL = 1e-9      # `count_targets_per_side`, of each row's mass


def _row_of(starts: np.ndarray, n: int) -> np.ndarray:
    """Row index of each of n entries in `Coupling.row_segments` order."""
    return np.repeat(np.arange(len(starts)), np.diff(starts, append=n))


class ForbiddenConfig(NamedTuple):
    """A three-point configuration whose swap strictly improves the cost."""

    x: float
    y_minus: float
    y_plus: float
    x_prime: float
    y_prime: float
    pattern: str  # "A": y- < x' < x <= y'   "B": y' <= x < x' < y+


def _dominance_counts(ranks: np.ndarray, i: np.ndarray, t: np.ndarray) -> np.ndarray:
    """For each query k, the number of positions j < i[k] with
    ranks[j] < t[k]; `ranks` is a permutation of 0..n-1.

    A merge-sort tree: level l sorts the ranks inside blocks of 2**l
    positions, and a prefix [0, i) is the union of one level-l block for
    each set bit l of i. Each level is built from the one below and answers
    every query before the next is built, so memory stays O(n + q) and the
    time is O((n + q) log^2 n).
    """
    n = len(ranks)
    slots = np.arange(n)
    keys = ranks.astype(np.int64)
    out = np.zeros(len(i), dtype=np.int64)
    level = 0
    while (1 << level) <= n:
        # blocks of 2**level slots, each sorted by rank: block b's keys lie
        # in [b n, (b + 1) n), after the b 2**level keys of earlier blocks
        keys = np.sort((slots >> level) * n + keys % n, kind="stable")
        has = (i >> level) & 1 == 1
        b = (i[has] >> level) - 1
        out[has] += np.searchsorted(keys, b * n + t[has]) - (b << level)
        level += 1
    return out


def _flag_rows(x, y_min, y_max, ex, ey) -> np.ndarray:
    """True for each row (x, y_min, y_max) with an entry (ex, ey) in box A,
    (y_min, x) x [x, y_max), or in box B, (x, y_max) x (y_min, x]."""
    by_x = np.argsort(ex, kind="stable")
    ranks = np.empty(len(ey), dtype=np.int64)
    ranks[np.argsort(ey[by_x], kind="stable")] = np.arange(len(ey))
    sx, sy = ex[by_x], np.sort(ey)
    # open bounds become half-open ones: v < z  iff  nextafter(v, inf) <= z
    lo_up, x_up = np.nextafter(y_min, np.inf), np.nextafter(x, np.inf)
    # boxes A then B as position ranges [i0, i1) in sx and ranks [t0, t1)
    i0 = np.searchsorted(sx, np.concatenate((lo_up, x_up)))
    i1 = np.maximum(np.searchsorted(sx, np.concatenate((x, y_max))), i0)
    t0 = np.searchsorted(sy, np.concatenate((x, lo_up)))
    t1 = np.maximum(np.searchsorted(sy, np.concatenate((y_max, x_up))), t0)
    d = _dominance_counts(ranks, np.concatenate((i1, i1, i0, i0)),
                          np.concatenate((t1, t0, t1, t0))).reshape(4, -1)
    return ((d[0] - d[1] - d[2] + d[3]).reshape(2, -1) > 0).any(axis=0)


def detect_forbidden(pi: Coupling, tol: float = DETECT_MASS_TOL):
    """List every forbidden three-point configuration in the support of a
    1-D coupling. Entries with mass <= tol are ignored.

    A source atom x with targets y- < y+ is forbidden by an entry (x', y')
    with y- < y' < y+ in pattern A (y- < x' < x <= y') or pattern B
    (y' <= x < x' < y+). Both patterns only weaken as the pair widens, so a
    row has a configuration iff one holds for its widest pair (y_min, y_max):
    an entry in  (y_min, x) x [x, y_max)  (A) or  (x, y_max) x (y_min, x]
    (B). The search flags rows by counting entries in these boxes for all
    rows at once (`_dominance_counts`, O(n log^2 n) for n entries), then
    lists the configurations of the flagged rows only, pair by pair. A
    valid optimizer has no flagged rows. The list is ordered by row, by
    target pair, by pattern and by entry index.
    """
    if pi.dim != 1:
        raise InputError("detector supports dim=1 couplings")
    keep = pi.masses > tol
    if not keep.any():
        return []
    ex = pi.xs[keep]
    ey = pi.ys[keep]
    order, starts = pi.row_segments()
    xs = pi.xs[order][starts]
    ys = pi.ys[order]
    kept = keep[order]
    y_min = np.minimum.reduceat(np.where(kept, ys, np.inf), starts)
    y_max = np.maximum.reduceat(np.where(kept, ys, -np.inf), starts)
    flagged = _flag_rows(xs, y_min, y_max, ex, ey)
    ends = np.append(starts[1:], len(order))
    found = []
    for r in np.flatnonzero(flagged).tolist():
        x = float(xs[r])
        row = slice(starts[r], ends[r])
        row_ys = np.sort(ys[row][kept[row]])
        for i in range(len(row_ys)):
            for k in range(i + 1, len(row_ys)):
                y_m, y_p = float(row_ys[i]), float(row_ys[k])
                between = (ey > y_m) & (ey < y_p)
                mask_a = between & (ex > y_m) & (ex < x) & (ey >= x)
                mask_b = between & (ey <= x) & (ex > x) & (ex < y_p)
                for idx in np.nonzero(mask_a)[0]:
                    found.append(ForbiddenConfig(x, y_m, y_p,
                                                 float(ex[idx]), float(ey[idx]), "A"))
                for idx in np.nonzero(mask_b)[0]:
                    found.append(ForbiddenConfig(x, y_m, y_p,
                                                 float(ex[idx]), float(ey[idx]), "B"))
    return found


def swap_gain(x: float, y_minus: float, y_plus: float, x_prime: float,
              y_prime: float, p: float) -> float:
    """Cost saved by the three-point swap; positive iff the configuration
    is forbidden. Equals G(x) - G(x') for
    G(z) = t|z-y-|^p + (1-t)|z-y+|^p - |z-y'|^p with t y- + (1-t) y+ = y'."""
    if not (y_minus < y_prime < y_plus):
        raise InputError("need y_minus < y_prime < y_plus")
    check_exponent(p)
    t = (y_plus - y_prime) / (y_plus - y_minus)
    if not (0.0 < t < 1.0):
        raise InputError(f"degenerate barycenter weight t={t}")

    def G(z):
        return (t * abs(z - y_minus) ** p + (1 - t) * abs(z - y_plus) ** p
                - abs(z - y_prime) ** p)

    return G(x) - G(x_prime)


def check_decreasing(maps: TransportMaps) -> bool:
    """True iff both frontier maps are nonincreasing along the rows, with
    equal values allowed only across a shared, partially consumed atom:
    there the earlier row must have left mass in the atom, and consumption
    can only grow. Positions and fractions are compared within MAP_TOL."""
    for vals, fracs in ((maps.lower, maps.lower_frac),
                        (maps.upper, maps.upper_frac)):
        same = np.abs(np.diff(vals)) <= MAP_TOL
        spent = (fracs[:-1] >= 1.0 - MAP_TOL) | (fracs[1:] < fracs[:-1] - MAP_TOL)
        if ((vals[1:] > vals[:-1] + MAP_TOL) | (same & spent)).any():
            return False
    return True


@dataclass(frozen=True)
class DeformationInstance:
    """Geometry for the circular deformation check.

    Mass starts as a symmetric pair (+-a, z) on the circle of radius r and
    slides along it toward the vertical axis; the transport cost is measured
    from the off-axis point (0, b). The cost profile is h(s) = s^q.
    """

    b: float
    r: float
    z: float
    q: float

    def __post_init__(self):
        if self.r <= 0 or abs(self.z) >= self.r:
            raise InputError("need |z| < r with r > 0")
        if self.b == 0:
            raise InputError("barycenter height b must be nonzero")
        if not 0 < self.q < math.inf:
            raise InputError("cost exponent q must be finite and positive")

    @property
    def a(self) -> float:
        """Half-width of the starting pair: (+-a, z) lies on the circle."""
        return math.sqrt(self.r ** 2 - self.z ** 2)

    def north_south(self, t):
        """Heights of the north/south point pair at deformation time t."""
        zn = self.z + t * (self.r - self.z)
        zs = self.z - t * (self.r + self.z)
        return zn, zs


def deformation_curve(inst: DeformationInstance, t_grid: int = 101):
    """Transport cost C(t) of the deforming four-point measure on a uniform
    t grid over [0, 1]. Distances use the circle identity
    ||point(t) - (0,b)||^2 = r^2 + b^2 - 2 b height(t)."""
    if t_grid < 2:
        raise InputError("need at least 2 grid points")
    r, b, z, q = inst.r, inst.b, inst.z, inst.q
    ts = np.linspace(0.0, 1.0, t_grid)
    zn, zs = inst.north_south(ts)
    dn = np.sqrt(r * r + b * b - 2 * b * zn)
    ds = np.sqrt(r * r + b * b - 2 * b * zs)
    w_n = (r + z) / (2 * r)
    w_s = (r - z) / (2 * r)
    C = w_n * dn ** q + w_s * ds ** q
    return [(float(t), float(c)) for t, c in zip(ts, C)]


def random_deformation_instance(rng: np.random.Generator, q: float) -> DeformationInstance:
    """Draw a well-conditioned random geometry for the deformation check."""
    while True:
        r = rng.uniform(0.2, 2.0)
        z = rng.uniform(-0.9, 0.9) * r
        b = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        if abs(abs(b) - r) > 0.05:
            return DeformationInstance(b=float(b), r=float(r), z=float(z), q=q)


def curve_is_strictly_decreasing(curve) -> bool:
    vals = np.asarray([c for _, c in curve])
    return bool(np.all(np.diff(vals) < 0))


def curve_is_constant(curve) -> bool:
    vals = np.asarray([c for _, c in curve])
    return bool(vals.max() - vals.min() <= FLAT_TOL)


def count_targets_per_side(pi: Coupling, a: float, b: float):
    """Per row of a separated coupling, how many nu atoms it touches on each
    tail. Entries at or below TARGET_REL_TOL of the row mass are ignored.
    Returns a list of (n_lower, n_upper) ordered by the source position."""
    order, starts = pi.row_segments()
    ys, w = pi.ys[order], pi.masses[order]
    real = w > TARGET_REL_TOL * np.add.reduceat(w, starts)[_row_of(starts, len(w))]
    counts = [np.add.reduceat((real & side).astype(np.intp), starts).tolist()
              for side in (ys <= a, ys >= b)]
    return list(zip(*counts))


@dataclass(frozen=True)
class ValidationReport:
    """Marginal and barycenter residuals of a coupling against (mu, nu)."""

    row_residual: float
    column_residual: float
    barycenter_residual: float
    mass_unit: float     # M and L of `scale_of(mu, nu)`
    length_unit: float

    def ok(self, tol: float) -> bool:
        """Marginal residuals within tol * M, the barycenter's within tol * M * L."""
        return (max(self.row_residual, self.column_residual) <= tol * self.mass_unit
                and self.barycenter_residual <= tol * self.mass_unit * self.length_unit)

    def to_dict(self) -> dict:
        return {
            "row": self.row_residual,
            "column": self.column_residual,
            "barycenter": self.barycenter_residual,
        }


def validate_coupling(pi: Coupling, mu: DiscreteMeasure,
                      nu: DiscreteMeasure) -> ValidationReport:
    """Report the worst row-marginal, column-marginal, and row-barycenter
    residuals of a coupling against its intended marginals.

    Each entry is credited to its nearest atom (`nearest_atom`). A marginal
    residual is the largest gap between an atom's mass and the mass credited
    to it, or the largest mass at one group of positions that matches no
    atom. Rows are the `group_atoms` groups of the sources.
    """
    mass_unit, _, length_unit = scale_of(mu, nu)
    if len(pi) == 0:
        worst = max(mu.total_mass(), nu.total_mass())
        return ValidationReport(worst, worst, 0.0, mass_unit, length_unit)
    resid = []
    for points, m in ((pi.xs, mu), (pi.ys, nu)):
        atom = nearest_atom(m.positions, points)
        hit = atom >= 0
        got = np.bincount(atom[hit], weights=pi.masses[hit], minlength=len(m))
        stray = np.bincount(group_atoms(points[~hit]), weights=pi.masses[~hit])
        resid.append(float(max(np.abs(got - m.masses).max(initial=0.0),
                               stray.max(initial=0.0))))
    # sum of w (y - x) per row, x the row's smallest source
    order, starts = pi.row_segments()
    n = len(order)
    xs, ys = (points[order] for points in pi.points())
    spread = pi.masses[order, None] * (ys - xs[starts][_row_of(starts, n)])
    bary = float(np.abs(np.add.reduceat(spread, starts)).max())
    return ValidationReport(resid[0], resid[1], bary, mass_unit, length_unit)
