"""Radially symmetric marginals: reduction to the line, lifting, symmetry.

A radially symmetric measure on R^d with radial density f induces, along any
one-dimensional subspace through the origin, the even signed-radius density

    f0(r) = (S/2) f(|r|) |r|^(d-1),   S = surface area of the unit sphere,

normalized so the induced measure carries the full d-dimensional mass. The
optimal martingale coupling between two such measures decomposes along rays:
solving the induced 1-D problem and attaching a uniformly random direction
reproduces the d-dimensional optimizer, whose disintegration at x lives on
the line {a x}. The d-dimensional cost equals the 1-D cost along each ray,
because |r u - s u| = |r - s| for unit u.

Spherical-shell marginals (uniform measure on |x| = r) are the atomic
counterpart: each shell of mass m induces the symmetric atom pair
(m/2) at +-r. Shells at r = 0 are rejected; the reduction needs no mass at
the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotInConvexOrderError, SolverFailureError
from .measures import (Coupling, DiscreteMeasure, GridDensity, TransportMaps,
                       _merge_groups, check_first_moment, distance, freeze,
                       parse_int, quantize, read_spec, spec_numbers)
from .mot1d import cost, reflection_residual, solve
# not called here; perfbench/tracing.py's PATCHES rebinds them (mot1d.solve reads its own)
from .measures import common_mass_split, convex_order_check  # noqa: F401
from .mot1d import detect_separation, solve_sweep  # noqa: F401


def unit_sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    try:
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    except OverflowError:  # Gamma(d/2) passes the largest float from d = 344 on
        raise InputError(f"dimension {d} is too large: Gamma(d/2) in the unit "
                         "sphere's area overflows a float") from None


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-constant radial density on cells of a grid 0 = r0 < ... < rK."""

    dim: int
    radii: np.ndarray   # K+1 edges, starting at 0
    values: np.ndarray  # K cell densities

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        f = np.asarray(self.values, dtype=float)
        if self.dim < 2:
            raise InputError("radial profiles require dim >= 2")
        # nan fails diff > 0, so only an infinite rK is left to refuse
        if (len(r) < 2 or r[0] != 0.0 or not np.all(np.diff(r) > 0)
                or not np.isfinite(r[-1])):
            raise InputError("radius grid must be finite, 0 = r0 < ... < rK")
        if len(f) != len(r) - 1 or np.any(f < 0) or np.any(~np.isfinite(f)):
            raise InputError("need one finite nonnegative value per cell")
        freeze(self, radii=r, values=f)
        # r^d can overflow, and 0 * inf is nan: both make the mass not finite
        with np.errstate(over="ignore", invalid="ignore"):
            mass = self.total_mass()
        if not 0 < mass < np.inf:
            raise InputError(f"profile mass must be finite and positive, got {mass!r}")

    def total_mass(self) -> float:
        s = unit_sphere_area(self.dim)
        shell = (self.radii[1:] ** self.dim - self.radii[:-1] ** self.dim) / self.dim
        return float(s * np.dot(self.values, shell))

    def radial_cdf(self, s) -> np.ndarray:
        """Mass of the ball of radius s (vectorized, exact per cell): prefix
        sums of whole shells plus the part of the cell holding s."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        r, d = self.radii, self.dim
        shells = self.values * (r[1:] ** d - r[:-1] ** d) / d
        below = np.concatenate(([0.0], np.cumsum(shells)))
        k = np.clip(np.searchsorted(r, s, side="right") - 1, 0, len(shells) - 1)
        reach = np.clip(s, r[k], r[k + 1])
        part = self.values[k] * (reach ** d - r[k] ** d) / d
        return unit_sphere_area(d) * (below[k] + part)


@dataclass(frozen=True)
class RadialAtoms:
    """Uniform spherical shells |x| = r with given total masses."""

    dim: int
    radii: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        w = np.asarray(self.masses, dtype=float)
        if self.dim < 2:
            raise InputError("radial atoms require dim >= 2")
        if len(r) != len(w) or len(r) == 0:
            raise InputError("radii and masses must be nonempty and equal length")
        # nan fails both comparisons, so each test refuses it too
        if not np.all((0 < r) & (r < np.inf)):
            raise InputError("shell radii must be finite and > 0 (no mass at the origin)")
        if not np.all((0 < w) & (w < np.inf)):
            raise InputError("shell masses must be finite and > 0")
        with np.errstate(over="ignore"):  # the overflow is the error reported
            total = w.sum()
        if not np.isfinite(total):
            raise InputError("the total mass must be finite")
        order = np.argsort(r)
        freeze(self, radii=r[order], masses=w[order])

    def total_mass(self) -> float:
        return float(self.masses.sum())


def induce_1d(rp: RadialProfile, n: int | None = None) -> GridDensity:
    """Signed-radius density induced on [-rK, rK], averaged per grid cell.

    Cell masses are exact integrals of (S/2) f(|r|) |r|^(d-1), so the total
    equals the d-dimensional mass to rounding. Default n keeps two target
    cells per radial cell when the input grid is uniform.
    """
    R = float(rp.radii[-1])
    if n is None:
        widths = np.diff(rp.radii)
        if np.max(widths) - np.min(widths) > 1e-12 * R:
            raise InputError("non-uniform radial grid: pass an explicit n")
        n = 2 * (len(rp.radii) - 1)
    if n < 2:
        raise InputError("need at least 2 cells")
    # integer-offset edges are exactly mirror-symmetric, unlike linspace
    edges = (2.0 * np.arange(n + 1) - n) * (R / n)
    lo, hi = edges[:-1], edges[1:]
    # mass on [lo, hi]: with F = radial_cdf, sign(s) F(|s|) / 2 is an antiderivative
    masses = 0.5 * np.abs(np.sign(hi) * rp.radial_cdf(np.abs(hi))
                          - np.sign(lo) * rp.radial_cdf(np.abs(lo)))
    values = masses / (edges[1] - edges[0])
    return GridDensity(-R, R, n, values)


def induced_atoms(ra: RadialAtoms) -> DiscreteMeasure:
    """Signed-radius atoms of shell marginals: (m/2) at -r and +r."""
    pos = np.concatenate([-ra.radii[::-1], ra.radii])
    w = np.concatenate([ra.masses[::-1] / 2, ra.masses / 2])
    return DiscreteMeasure(pos, w, dim=1)


def _to_induced(marginal, n: int) -> DiscreteMeasure:
    if isinstance(marginal, RadialProfile):
        return quantize(induce_1d(marginal, n))
    if isinstance(marginal, RadialAtoms):
        return induced_atoms(marginal)
    raise InputError("radial marginal must be RadialProfile or RadialAtoms")


def symmetrize_coupling(pi: Coupling) -> Coupling:
    """Average a 1-D coupling with its reflection through the origin: the
    entries (x, y) and their mirrors (-x, -y), each at half its mass, merge
    as atoms of the plane (`measures._merge_groups`), sorted by (x, y).
    No solve calls it, since the LP route solves over symmetric couplings;
    it is kept for perfbench/tracing.py's PATCHES and for its tests."""
    xy = np.column_stack([pi.xs, pi.ys])
    pos, w = _merge_groups(np.concatenate([xy, -xy]), np.tile(pi.masses, 2) * 0.5)
    return Coupling(pos[:, 0], pos[:, 1], w)


@dataclass(frozen=True)
class LiftedCoupling:
    """1-D signed-radius coupling plus the ambient dimension it lifts to.

    A base entry (r, s, m) stands for mass m transported from r*u to s*u
    with u uniform on the unit sphere; positive target sign means the same
    ray as the source.
    """

    base: Coupling
    dim: int
    maps: TransportMaps | None = None

    def cost_ddim(self, p: float) -> float:
        """Cost evaluated through d-dimensional points on a fixed ray."""
        e = np.zeros(self.dim)
        e[0] = 1.0
        dist = distance(self.base.xs[:, None] * e, self.base.ys[:, None] * e)
        return float(np.dot(self.base.masses, dist ** p))


def solve_radial(mu, nu, p: float, n: int = 400, tol: float = 1e-9):
    """Reduce, solve on the line, and lift. Returns (LiftedCoupling, cost).

    Density marginals are quantized at n cells, and the induced pair goes
    through `mot1d.solve` at `tol`. A sweep coupling must be reflection-
    symmetric in `Solution.scale`'s units. The LP route solves over the
    reflection quotient (`mot1d.solve(mirror=True)`), so its optimum is
    symmetric by construction; a remainder that is not exactly its own
    mirror image raises SolverFailureError. An order failure is re-raised
    with refinement advice, since quantization can break the convex order.
    """
    if n < 2:
        raise InputError("need n >= 2 quantization cells")
    dim = getattr(mu, "dim", None)
    if dim is None or getattr(nu, "dim", None) != dim:
        raise InputError("marginals must share the ambient dimension")

    try:
        sol = solve(_to_induced(mu, n), _to_induced(nu, n), p, tol=tol, mirror=True)
    except NotInConvexOrderError as exc:
        raise NotInConvexOrderError(
            f"induced marginals: {exc}; refine the quantization (n={n}) or "
            "check the input profiles", report=exc.report) from exc
    if sol.route == "sweep":
        (M, _, L), pi = sol.scale, sol.pi
        resid = reflection_residual(Coupling(pi.xs / L, pi.ys / L, pi.masses / M))
        if resid > 1e-9:
            raise SolverFailureError(
                f"symmetric radial instance gave asymmetric coupling ({resid:.3e})",
                residual=resid)

    lifted = LiftedCoupling(sol.coupling(), dim, sol.maps)
    return lifted, cost(lifted.base, p)


GUIDE_CELLS = 4  # guide-table cells per entry, before rounding up to a power of two
# Rows per block of the check. A block costs a fixed number of numpy calls,
# and each call passes the interpreter lock to and fro while `solve-radial`
# writes its files on a second thread, so fewer, larger blocks overlap
# better; one block of d = 3 holds about 1.5 MB of temporaries.
LIFT_CHUNK = 16384


def lift_buffers(count: int, dim: int):
    """Uninitialized (u, z) for `lift_draws`, of shapes (count,) and
    (count, dim): 8·(dim + 1) bytes per draw. A count whose buffers cannot
    be allocated is an InputError that names the bytes."""
    if count < 1:
        raise InputError("count must be >= 1")
    try:
        return np.empty(count), np.empty((count, dim))
    except (MemoryError, ValueError):  # numpy refuses too large a shape with ValueError
        raise InputError(f"{count} samples in dimension {dim} need "
                         f"{8 * count * (dim + 1)} bytes, which cannot be allocated") from None


def lift_draws(seed: int, u: np.ndarray, z: np.ndarray):
    """Fill the buffers of `lift_buffers` with the draws of the lift, from
    `np.random.default_rng(seed)`: u with `rng.random(len(u))`, then z with
    `rng.normal(size=z.shape)`, bit for bit. Adding 0.0 does what normal's
    loc + scale·z does to a standard normal: it turns -0.0 into 0.0."""
    rng = np.random.default_rng(seed)
    rng.random(out=u)
    rng.standard_normal(out=z)
    z += 0.0


def _lifted_blocks(lc: LiftedCoupling, u: np.ndarray, z: np.ndarray):
    """Draws (x, y) of the lifted coupling from the draws u, z of
    `lift_draws`, LIFT_CHUNK rows at a time.

    Entries are drawn by exact inverse CDF, the draw
    `rng.choice(len(base), size=count, p=weights)` makes: with
    `cdf = cumsum(weights)`, `cdf /= cdf[-1]` and `u = rng.random(count)`, a
    draw takes entry `cdf.searchsorted(u, "right")`. A guide table answers
    that search (Chen & Asau, AIIE Trans. 1974). K = `cells`, a power of
    two at least GUIDE_CELLS times the entry count, splits [0, 1) into cells
    [k/K, (k+1)/K); u·K is exact, so each draw finds its own cell. With
    `g[k] = cdf.searchsorted(k / K, "right")`, a draw in a cell with
    g[k] == g[k+1] takes g[k]. Only draws in the other cells (at most one
    cell per entry) are searched. Directions are normalized Gaussian
    vectors, i.e. uniform on the sphere: each block normalizes its rows of
    z in place, and the caller may overwrite them once the block is read.
    The draws do not depend on LIFT_CHUNK. Checks the coupling before it
    returns the generator.
    """
    base = lc.base
    if len(base) == 0:
        raise InputError("empty coupling")
    weights = base.masses / base.masses.sum()
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cells = 1 << (GUIDE_CELLS * len(cdf) - 1).bit_length()
    guide = cdf.searchsorted(np.arange(cells + 1) / cells, "right")
    one_entry = np.where(guide[:-1] == guide[1:], guide[:-1], -1)

    def blocks():
        for start in range(0, len(u), LIFT_CHUNK):
            block = u[start:start + LIFT_CHUNK]
            idx = one_entry[(block * cells).astype(np.intp)]
            searched = np.flatnonzero(idx < 0)
            idx[searched] = cdf.searchsorted(block[searched], "right")
            direction = z[start:start + LIFT_CHUNK]
            direction /= row_norms(direction)[:, None]
            yield base.xs[idx, None] * direction, base.ys[idx, None] * direction

    return blocks()


def sample_lifted(lc: LiftedCoupling, count: int, seed: int):
    """Draw (X, Y) pairs from the lifted coupling; deterministic per seed.

    Returns arrays of shape (count, dim), the blocks of `_lifted_blocks`
    stacked in order.
    """
    u, z = lift_buffers(count, lc.dim)
    lift_draws(seed, u, z)
    xs, ys = zip(*_lifted_blocks(lc, u, z))
    return np.concatenate(xs), np.concatenate(ys)


def row_norms(a: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(a, axis=1)` of an (N, d) array, bit for bit.

    numpy sums a row of fewer than 8 squares in order, so adding the squared
    columns in order gives the same sums without a reduction per row; from 8
    columns on numpy sums pairwise, and its norm is used.
    """
    if a.shape[1] >= 8:
        return np.linalg.norm(a, axis=1)
    squares = a[:, 0] * a[:, 0]
    for col in a.T[1:]:
        squares += col * col
    return np.sqrt(squares)


def summarize_lift(lc: LiftedCoupling, u: np.ndarray, z: np.ndarray) -> dict:
    """The Monte Carlo check that `solve-radial --samples` prints, for the
    draws u, z of `lift_draws`: those `sample_lifted` stacks.

    `martingale_mean_max_se`: the largest |mean| of a coordinate of y - x,
    in standard errors (sample std with ddof 1, over sqrt(count)).
    `annulus_max_gap`: the largest gap between the share of the draws and
    the share of base's mass in each of 8 equal annuli of |x| up to 1.0001
    times the largest |source|. The means and deviations are summed in the
    order of numpy's axis-0 mean and std. The draws are taken block by
    block (`_lifted_blocks`): each block's y - x overwrites the normals it
    was drawn from, so z ends holding y - x, and then its deviations and
    their squares; nothing else of size count is allocated. The draws are
    first divided by `unit`, the largest power of two at most base's
    largest |position|: that is exact, and neither the squared radii nor
    the squared deviations can overflow.
    """
    base = lc.base
    blocks = _lifted_blocks(lc, u, z)
    count = len(u)
    unit = math.ldexp(0.5, math.frexp(float(np.abs([base.xs, base.ys]).max()))[1])
    edges = np.linspace(0.0, float(np.abs(base.xs).max()) * 1.0001, 9)
    delta = z  # block by block, y - x overwrites the normals it was drawn from
    got = np.zeros(len(edges) - 1, dtype=np.int64)
    start = 0
    for x, y in blocks:
        x /= unit
        y /= unit
        np.subtract(y, x, out=delta[start:start + len(x)])
        got += np.histogram(row_norms(x), bins=edges / unit)[0]
        start += len(x)
    mean = delta.sum(axis=0) / count
    delta -= mean
    np.multiply(delta, delta, out=delta)
    se = np.sqrt(delta.sum(axis=0) / (count - 1)) / np.sqrt(count)
    # mean and se are both in units of `unit`; an se of 0 divides by 1 / unit
    mean_in_se = np.abs(mean) / np.where(se > 0, se, 1.0 / unit)
    expect, _ = np.histogram(np.abs(base.xs), bins=edges, weights=base.masses)
    expect = expect / base.total_mass()
    return {
        "samples": count,
        "martingale_mean_max_se": float(mean_in_se.max()),
        "annulus_max_gap": float(np.abs(got / count - expect).max()),
    }


def rotation_group_2d(n: int = 360):
    """n evenly spaced planar rotation matrices, the finite stand-in for
    averaging over the full rotation group."""
    if n < 1:
        raise InputError("need at least one rotation")
    out = []
    for k in range(n):
        t = 2.0 * math.pi * k / n
        out.append(np.array([[math.cos(t), -math.sin(t)],
                             [math.sin(t), math.cos(t)]]))
    return out


# ---------------------------------------------------------------------------
# Radial spec files:
# {"dim": d, "mu": {"type": "radial-grid", "r": [...], "f": [...]}, "nu": ...}
# with {"type": "radial-atoms", "atoms": [[r, mass], ...]} for shells.
# ---------------------------------------------------------------------------

def _radial_from_dict(d: dict, dim: int):
    kind = d["type"]
    if kind == "radial-grid":
        return RadialProfile(dim, spec_numbers(d["r"], "r"), spec_numbers(d["f"], "f"))
    if kind == "radial-atoms":
        atoms = spec_numbers(d["atoms"], "atoms", 2)
        shells = RadialAtoms(dim, atoms[:, 0], atoms[:, 1])
        check_first_moment(shells.radii, shells.masses)
        return shells
    raise InputError(f"unknown radial marginal type {kind!r}")


def _radial_pair(doc: dict):
    dim = parse_int(doc["dim"], "dim")
    return dim, _radial_from_dict(doc["mu"], dim), _radial_from_dict(doc["nu"], dim)


def load_radial_pair(path):
    """(dim, mu, nu) of a radial spec file."""
    return read_spec(path, "radial spec", _radial_pair)
