"""Helpers that only the tests call, kept out of the package.

The paper's proof devices, each as a check the tests run against the
solvers: rotation invariance (`rotate_pushforward`), r-equivalence of
measures (`r_equivalent`), L-symmetrization (`l_symmetrize_2d`), the
three-point swap (`swap_gain`), the mass an optimal plan keeps in place
(`diagonal_mass`) and the number of targets each row of a separated coupling
touches per tail (`count_targets_per_side`). Then the entry-list views of a
`Coupling`: `from_entries`, `entry_list` and `row_list`. Each was a function
or method of motkit and is copied unchanged apart from the names.
"""

import numpy as np

from motkit import Coupling, DiscreteMeasure, InputError
from motkit.lp import LpSolution
from motkit.measures import check_exponent, distance, group_atoms, same_atom
from motkit.verify import _row_of

TARGET_REL_TOL = 1e-9      # `count_targets_per_side`, of each row's mass


def from_entries(entries, dim: int = 1) -> Coupling:
    entries = list(entries)
    return Coupling(*(np.asarray([e[i] for e in entries]) for i in range(3)), dim)


def entry_list(pi: Coupling):
    return list(zip(pi.xs, pi.ys, pi.masses))


def row_list(pi: Coupling):
    """Group entries by source atom: list of (x, target array, mass array).

    Rows follow `Coupling.row_segments`: x is the row's smallest source and
    entries are sorted by (x, y).
    """
    order, starts = pi.row_segments()
    xs, ys, w = pi.xs[order], pi.ys[order], pi.masses[order]
    ends = np.append(starts[1:], len(order))
    return [(float(xs[s]) if pi.dim == 1 else xs[s], ys[s:e], w[s:e])
            for s, e in zip(starts.tolist(), ends.tolist())]


def rotate_pushforward(pi: Coupling, M: np.ndarray) -> Coupling:
    """Apply an orthogonal map to both coordinates of a coupling."""
    M = np.asarray(M, dtype=float)
    if pi.dim < 2:
        raise InputError("rotation needs dim >= 2 couplings")
    if M.shape != (pi.dim, pi.dim):
        raise InputError("matrix shape must match the coupling dimension")
    if np.abs(M.T @ M - np.eye(pi.dim)).max() > 1e-12:
        raise InputError("matrix is not orthogonal within 1e-12")
    return Coupling(pi.xs @ M.T, pi.ys @ M.T, pi.masses, pi.dim)


def r_equivalent(phi: DiscreteMeasure, psi: DiscreteMeasure, edges,
                 tol: float = 1e-9) -> bool:
    """Same mass on every annulus (per `edges`) and, radius by radius, the
    same mass, with radii matched by `group_atoms` and masses within tol."""
    if phi.dim != psi.dim:
        raise InputError("measures must share dim")
    edges = np.asarray(edges, dtype=float)
    r1, r2 = (distance(m.points(), 0.0) for m in (phi, psi))
    h1, _ = np.histogram(r1, bins=edges, weights=phi.masses)
    h2, _ = np.histogram(r2, bins=edges, weights=psi.masses)
    if np.abs(h1 - h2).max(initial=0.0) > tol:
        return False
    labels = group_atoms(np.concatenate([r1, r2]))
    n = int(labels.max(initial=-1)) + 1
    gap = (np.bincount(labels[:len(r1)], weights=phi.masses, minlength=n)
           - np.bincount(labels[len(r1):], weights=psi.masses, minlength=n))
    return bool(np.abs(gap).max(initial=0.0) <= tol)


def l_symmetrize_2d(phi: DiscreteMeasure, direction) -> DiscreteMeasure:
    """Average a planar measure with its reflection across the line spanned
    by `direction`; the result is symmetric about that line and costs the
    same to any point on it."""
    if phi.dim != 2:
        raise InputError("l_symmetrize_2d requires dim=2")
    u = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(u)
    if norm == 0:
        raise InputError("line direction must be nonzero")
    u = u / norm
    refl = 2.0 * np.outer(u, u) - np.eye(2)
    pos = np.vstack([phi.positions, phi.positions @ refl.T])
    w = np.concatenate([phi.masses / 2, phi.masses / 2])
    return DiscreteMeasure(pos, w, dim=2)


def diagonal_mass(sol: LpSolution) -> float:
    """Mass the optimal coupling keeps fixed: entries whose x and y are one
    atom (`measures.same_atom`)."""
    if sol.status != "optimal":
        raise InputError("diagonal_mass requires an optimal solution")
    pi = sol.coupling
    return float(pi.masses[same_atom(*pi.points())].sum())


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
