"""Seeded random instance builders shared across the test suite.

Convex order is always enforced by construction: target marginals are built
from mean-preserving spreads of the source atoms, so the pairs are feasible
with a known margin and the solvers can be cross-checked without filtering.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from motkit import (Coupling, DiscreteMeasure, GridDensity, MotkitError, MotLp,
                    RadialAtoms, solve_lp)


def separated_instance(rng, kmax=15, pool_max=7):
    """Pair (mu, nu) with mu inside an interval, nu outside, mu <=_c nu.

    Every mu atom splits its mass between one atom of a lower pool (below
    the interval) and one of an upper pool, with martingale weights.
    """
    a = rng.uniform(-1.5, -0.2)
    b = rng.uniform(0.2, 1.5)
    k = int(rng.integers(1, kmax + 1))
    width = b - a
    xs = rng.uniform(a + 0.02 * width, b - 0.02 * width, size=k)
    ws = rng.uniform(0.2, 1.0, size=k)
    ws /= ws.sum()
    mu = DiscreteMeasure(xs, ws)
    n_lo = int(rng.integers(1, pool_max + 1))
    n_hi = int(rng.integers(1, pool_max + 1))
    lo_pool = rng.uniform(-3.0, a - 0.05, size=n_lo)
    hi_pool = rng.uniform(b + 0.05, 3.0, size=n_hi)
    acc = {}
    for x, w in zip(mu.positions, mu.masses):
        lo = float(lo_pool[rng.integers(0, n_lo)])
        hi = float(hi_pool[rng.integers(0, n_hi)])
        t = (hi - x) / (hi - lo)
        acc[lo] = acc.get(lo, 0.0) + w * t
        acc[hi] = acc.get(hi, 0.0) + w * (1 - t)
    nu = DiscreteMeasure(list(acc.keys()), list(acc.values()))
    return mu, nu


def overlapping_instance(rng, kmax=8, shared_max=4):
    """Separated pair plus identical extra atoms on both sides, so the
    common mass mu ^ nu is nonzero and must stay on the diagonal."""
    mu, nu = separated_instance(rng, kmax=kmax)
    kc = int(rng.integers(1, shared_max + 1))
    cpos = rng.uniform(-2.5, 2.5, size=kc)
    cw = rng.uniform(0.05, 0.3, size=kc)
    mu2 = DiscreteMeasure(np.concatenate([mu.positions, cpos]),
                          np.concatenate([mu.masses, cw]))
    nu2 = DiscreteMeasure(np.concatenate([nu.positions, cpos]),
                          np.concatenate([nu.masses, cw]))
    return mu2, nu2


def not_in_order_instance(rng):
    """Equal mass, and usually equal mean, but convex order violated.

    Either the roles of a strictly spread pair are reversed, or the target
    is shifted so the means disagree.
    """
    mu, nu = separated_instance(rng, kmax=6)
    if rng.random() < 0.5:
        return nu, mu
    shift = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.3)
    return mu, DiscreteMeasure(nu.positions + shift, nu.masses)


def triangular_grid(n):
    """V-shaped density |r| on [-1, 1] as a grid of cell averages."""
    g = GridDensity(-1.0, 1.0, n, np.ones(n))
    return GridDensity(-1.0, 1.0, n, np.abs(g.midpoints()))


def six_atom_symmetric_nu():
    """Six symmetric atoms outside [-1, 1] dominating any centered measure
    supported there (mixture of symmetric two-point spreads)."""
    pos = [-2.5, -2.0, -1.5, 1.5, 2.0, 2.5]
    w = [0.15, 0.2, 0.15, 0.15, 0.2, 0.15]
    return DiscreteMeasure(pos, w)


def ring_instance(n_fold=8, r_mu=1.0, r_lo=0.5, r_hi=2.0):
    """d=2 pair: mu on one ring, nu on two rings, n_fold-symmetric, in
    convex order by a radial mean-preserving split of each atom."""
    ring = ring_directions(n_fold)
    lam = (r_hi - r_mu) / (r_hi - r_lo)
    mu = DiscreteMeasure(r_mu * ring, np.full(n_fold, 1.0 / n_fold), dim=2)
    nu_pos = np.vstack([r_lo * ring, r_hi * ring])
    nu_w = np.concatenate([np.full(n_fold, lam / n_fold),
                           np.full(n_fold, (1.0 - lam) / n_fold)])
    nu = DiscreteMeasure(nu_pos, nu_w, dim=2)
    return mu, nu


def ring_directions(n_fold):
    """n_fold unit vectors of the plane at angles 2 pi k / n_fold."""
    angles = 2.0 * np.pi * np.arange(n_fold) / n_fold
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def polyhedron_directions(name):
    """Unit vertices of the octahedron, cube or icosahedron in R^3, each
    set closed under x -> -x."""
    signs = (-1.0, 1.0)
    if name == "octahedron":
        v = np.vstack([np.eye(3), -np.eye(3)])
    elif name == "cube":
        v = np.array([[a, b, c] for a in signs for b in signs for c in signs])
    elif name == "icosahedron":
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        v = np.array([row for a in signs for b in signs
                      for row in ([0.0, a, b * phi], [a, b * phi, 0.0],
                                  [b * phi, 0.0, a])])
    else:
        raise ValueError(f"unknown polyhedron {name!r}")
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def shell_atoms(directions, shells):
    """The RadialAtoms `shells` on the rays through `directions`: a shell
    |x| = r of mass w puts w / k at r u for each of the k unit vectors u."""
    k, dim = directions.shape
    pos = np.vstack([r * directions for r in shells.radii])
    return DiscreteMeasure(pos, np.repeat(shells.masses / k, k), dim=dim)


def shell_spread(rng, dim):
    """Seeded RadialAtoms pair (mu, nu) with mu <=_c nu: two mu shells in
    [1, 2], each split along its own rays between one nu shell inside both
    and one outside both, with martingale weights."""
    r = np.sort(rng.uniform(1.0, 2.0, 2))
    w = rng.uniform(0.2, 1.0, 2)
    w /= w.sum()
    lo = rng.uniform(0.1, 0.9) * r[0]
    hi = rng.uniform(1.2, 2.5) * r[1]
    t = (hi - r) / (hi - lo)
    return (RadialAtoms(dim, r, w),
            RadialAtoms(dim, [lo, hi], [w @ t, w @ (1.0 - t)]))


def rotation_2d(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def plant_cross_swap(pi: Coupling, a: float, b: float, tol=1e-9):
    """Swap upper-tail mass between two rows of a separated coupling to
    create a forbidden configuration. Returns the perturbed Coupling, or
    None when no row pair has distinct upper targets."""
    rows = pi.rows()
    uppers = []
    for x, ys, ws in rows:
        hi = ys >= b
        lo = ys <= a
        if hi.any() and lo.any():
            j = int(np.argmax(ys[hi]))
            uppers.append((x, float(ys[hi][j]), float(ws[hi][j])))
        else:
            uppers.append(None)
    pair = None
    for i in range(len(uppers)):
        for j in range(i + 1, len(uppers)):
            if uppers[i] is None or uppers[j] is None:
                continue
            # rows ordered by x: earlier row has the higher upper target
            if uppers[i][1] > uppers[j][1] + tol:
                pair = (uppers[i], uppers[j])
                break
        if pair:
            break
    if pair is None:
        return None
    (xp, up, wp), (x, u, w) = pair
    delta = 0.25 * min(wp, w)
    agg = {}
    for ex, ey, ew in zip(pi.xs, pi.ys, pi.masses):
        agg[(float(ex), float(ey))] = agg.get((float(ex), float(ey)), 0.0) + float(ew)
    agg[(x, u)] -= delta
    agg[(xp, up)] -= delta
    agg[(x, up)] = agg.get((x, up), 0.0) + delta
    agg[(xp, u)] = agg.get((xp, u), 0.0) + delta
    entries = [(k[0], k[1], v) for k, v in sorted(agg.items()) if v > 1e-15]
    return Coupling.from_entries(entries)


def spread_pair_instance(rng, m):
    """m source atoms on [-1, 1], each split between its own pair of
    targets, so nu has 2m atoms, many inside the source hull (the LP
    workload generator of the benchmark)."""
    x = rng.uniform(-1.0, 1.0, m)
    w = rng.uniform(0.2, 1.0, m)
    w /= w.sum()
    u = rng.uniform(0.05, 1.0, m)
    v = rng.uniform(0.05, 1.0, m)
    t = v / (u + v)
    return (DiscreteMeasure(x, w),
            DiscreteMeasure(np.concatenate([x - u, x + v]),
                            np.concatenate([w * t, w * (1 - t)])))


def split_grid_instance(seed, eighths=False):
    """d=3 pair on a 0.5 grid, degenerate on purpose: 9 mu atoms in
    [-2, 2]^3, each split evenly to x +- a along a grid direction a != 0.
    Masses are 1/8 each, or random multiples of 1/8 with `eighths`; the
    totals are exact, so many ratio tests tie."""
    rng = np.random.default_rng([911, seed])
    x = rng.integers(-4, 5, (9, 3)) * 0.5
    a = rng.integers(-4, 5, (9, 3)) * 0.5
    a[(a == 0).all(axis=1)] = (0.5, 0.0, 0.0)
    w = rng.integers(1, 9, 9) / 8 if eighths else np.full(9, 0.125)
    mu = DiscreteMeasure(x, w, dim=3)
    nu = DiscreteMeasure(np.concatenate([x + a, x - a]), np.concatenate([w, w]) / 2, dim=3)
    return mu, nu


def scipy_matrix(A):
    """The constraint matrix held as fixed-width columns, as a scipy sparse
    matrix."""
    col = np.broadcast_to(np.arange(A.shape[1]), A.row.shape)
    return coo_matrix((A.val.ravel(), (A.row.ravel(), col.ravel())), shape=A.shape).tocsr()


def split_grid_failure(seed, eighths=False, scale=1.0):
    """Why solve_lp(mu, nu, 1.0, "max") misses on split_grid_instance(seed,
    eighths) with every mass times `scale`, or None when it is optimal and
    within 1e-9 relative of `scale` times the HiGHS optimum of the unscaled
    pair (HiGHS solves MotLp's LP, so its optimum is in MotLp's units)."""
    mu, nu = split_grid_instance(seed, eighths)
    prob = MotLp(mu, nu, 1.0, "max")
    ref = linprog(prob.objective_vector(), A_eq=scipy_matrix(prob.A), b_eq=prob.b,
                  bounds=(0, None), method="highs")
    if ref.status != 0:
        return f"HiGHS status {ref.status}"
    target = -scale * prob.mass_unit * prob.cost_unit * ref.fun
    try:
        sol = solve_lp(DiscreteMeasure(mu.positions, scale * mu.masses, dim=mu.dim),
                       DiscreteMeasure(nu.positions, scale * nu.masses, dim=nu.dim),
                       1.0, "max")
    except MotkitError as exc:
        return f"{type(exc).__name__}: {exc}"
    if sol.status != "optimal":
        return sol.status
    if abs(sol.objective - target) > 1e-9 * abs(target):
        return f"objective {sol.objective!r}, HiGHS {target!r}"
    return None
