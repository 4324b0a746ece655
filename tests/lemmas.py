"""Helpers that only the tests call, kept out of the package.

The paper's proof devices, each as a check the tests run against the
solvers: rotation invariance (`rotate_pushforward`), r-equivalence of
measures (`r_equivalent`), L-symmetrization (`l_symmetrize_2d`), the
three-point swap (`swap_gain`), the mass an optimal plan keeps in place
(`diagonal_mass`) and the number of targets each row of a separated coupling
touches per tail (`count_targets_per_side`). Then the entry-list views of a
`Coupling`: `from_entries`, `entry_list` and `row_list`. Each was a function
or method of motkit and is copied unchanged apart from the names.

Last, the pivot oracle: `lp._Basis`, `lp._run_phase`, `lp._revised_simplex`
and `lp.uniqueness_probe` as they were before the leaner pivot (B^-1's
rank-1 step by `np.outer`, c_B gathered from the cost at every pivot, every
column priced and then sliced), copied unchanged apart from the names
(`OracleBasis`, `oracle_run_phase`, `oracle_simplex`,
`oracle_uniqueness_probe`). `test_lp.py::TestPivotOracle` requires the
package's simplex to take the same pivots.
"""

import numpy as np

from motkit import Coupling, DiscreteMeasure, InputError, SolverFailureError
from motkit.lp import (FEAS_TOL, HARRIS_TOL, PIVOT_TOL, SUPPORT_TOL, LpSolution, MotLp,
                       Nonzeros, _gated_residual)
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


class OracleBasis:
    """A simplex basis of [A S] v = b: B^-1, the basic columns and their
    values, over [A S] in A's fixed-width layout (row, val).

    Column j < n is column j of A; column n + k is row k's artificial, the
    signed unit vector sign_k e_k, so A and b are kept as given; sign_k
    starts as the sign of b_k (+1 at 0). An artificial has A's width: slot
    0 holds sign_k in row k and its other slots hold 0 in row k, so B is
    accumulated, never assigned, from the slots. The basis is `start`, len(b)
    columns, or else every artificial. B^-1 is factorized on it once, and
    each basic artificial that comes out negative has its sign, its row of
    B^-1 and its value negated; the other basic values are nonnegative up
    to -FEAS_TOL, which is clipped to 0, and a lower value raises
    SolverFailureError. B^-1 is updated by rank-1 steps and recomputed from
    the basic columns after every len(basis) of them, so rounding does not
    grow with the pivot count.
    """

    def __init__(self, A: Nonzeros, b: np.ndarray, start=None, feas_tol=FEAS_TOL):
        m, self.n = A.shape
        self.width = self.n + m
        self.b = b
        slots = len(A.row)
        self.row = np.hstack([A.row, np.broadcast_to(np.arange(m), (slots, m))])
        self.val = np.hstack([A.val, np.zeros((slots, m))])
        self.val[0, self.n:] = np.where(b < 0, -1.0, 1.0)
        self.basis = np.arange(self.n, self.width) if start is None else np.array(start)
        self.refactorize()
        flip = np.flatnonzero((self.basis >= self.n) & (self.x < 0))
        self.val[0, self.basis[flip]] *= -1
        self.inv[flip] *= -1
        self.x[flip] *= -1
        low = float(self.x.min())
        if low < -feas_tol:
            raise SolverFailureError(f"start basis has a basic value {low:.3e} < 0")
        self.x[self.x < 0] = 0.0

    def price(self, y: np.ndarray) -> np.ndarray:
        """y @ [A S]."""
        return (y[self.row] * self.val).sum(axis=0)

    def column(self, q: int) -> np.ndarray:
        """B^-1 times column q."""
        return self.inv[:, self.row[:, q]] @ self.val[:, q]

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """cost - y @ [A S] over the first len(cost) columns, y = c_B B^-1."""
        return cost - self.price(cost[self.basis] @ self.inv)[:len(cost)]

    def values(self) -> np.ndarray:
        """The basic solution over the n columns of A, negatives clipped to 0."""
        v = np.zeros(self.n)
        v[self.basis] = self.x
        v[v < 0] = 0.0
        return v

    def pivot(self, row: int, q: int, u: np.ndarray):
        """Column q (u = B^-1 a_q) enters in place of basic position row."""
        theta = self.x[row] / u[row]
        self.x -= theta * u
        self.x[row] = theta
        pivot_row = self.inv[row] / u[row]
        self.inv -= np.outer(u, pivot_row)
        self.inv[row] = pivot_row
        self.basis[row] = q
        self.updates += 1
        if self.updates >= len(self.basis):
            self.refactorize()

    def refactorize(self):
        """Recompute B^-1 and the basic values from the basic columns."""
        k = len(self.basis)
        B = np.zeros((k, k))
        np.add.at(B, (self.row[:, self.basis], np.arange(k)), self.val[:, self.basis])
        try:
            self.inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(f"singular basis at refactorization: {exc}") from None
        self.x = self.inv @ self.b
        self.updates = 0

    def drop(self, rows: list):
        """Delete basic positions `rows`, each held by the artificial of a
        redundant constraint, together with those constraints: B^-1 loses
        the position's row and the constraint's column, and a slot in a
        deleted constraint becomes a 0 in row 0."""
        keep = np.ones(len(self.basis), dtype=bool)
        keep[rows] = False
        keep_con = np.ones(len(self.basis), dtype=bool)
        keep_con[self.basis[rows] - self.n] = False
        self.inv = self.inv[keep][:, keep_con]
        self.basis = self.basis[keep]
        self.x = self.x[keep]
        self.b = self.b[keep_con]
        kept = keep_con[self.row]
        self.row = np.where(kept, np.cumsum(keep_con)[self.row] - 1, 0)
        self.val = np.where(kept, self.val, 0.0)


def oracle_run_phase(B: OracleBasis, cost: np.ndarray, phase: str):
    """Pivot until optimal. Returns (iterations, whether Bland's rule was
    switched on); an unbounded cost or max(2000, 25 * B.width) iterations
    raise SolverFailureError.

    Entering candidates are the len(cost) first columns; a column of cost
    +inf never enters. Dantzig pricing switches permanently to Bland's rule
    after 10 * B.width iterations without objective progress. Under Bland's
    rule the row of lowest basic index leaves among those tied at the
    minimum ratio. Otherwise the ratio test is Harris's (Math. Programming,
    1973): the window of tied rows widens to every ratio at most the least
    (x_i + HARRIS_TOL) / u_i, and the row with the largest pivot element in
    it leaves, which keeps degenerate steps off near-zero pivots. Basic
    values can end a little below 0 (down to -2 * HARRIS_TOL on the
    split-grid family); values() clips them. The step is not clamped at 0:
    that breaks B v = b until the next refactorization, and it failed 3
    more solves of that family.
    """
    maxiter = max(2000, 25 * B.width)
    stall_limit = 10 * B.width
    bland = False
    stall = 0
    best = np.inf
    for it in range(maxiter):
        d = B.reduced_costs(cost)
        if bland:
            cand = np.nonzero(d < -PIVOT_TOL)[0]
            if len(cand) == 0:
                return it, bland
            col = int(cand[0])
        else:
            col = int(np.argmin(d))
            if d[col] >= -PIVOT_TOL:
                return it, bland
        u = B.column(col)
        # relative to the column's scale, so rounding noise never pivots
        pos = np.flatnonzero(u > PIVOT_TOL * max(1.0, float(np.abs(u).max())))
        if len(pos) == 0:
            raise SolverFailureError(f"{phase} ended with unbounded")
        x_pos, u_pos = B.x[pos], u[pos]
        ratios = x_pos / u_pos
        best_ratio = ratios.min()
        thresh = best_ratio + 1e-12 * max(1.0, abs(best_ratio))
        if not bland:
            thresh = max(thresh, float(((x_pos + HARRIS_TOL) / u_pos).min()))
        ties = pos[ratios <= thresh]
        row = int(ties[np.argmin(B.basis[ties])] if bland else ties[np.argmax(u[ties])])
        B.pivot(row, col, u)
        cur = float(cost[B.basis] @ B.x)
        if cur < best - 1e-12 * max(1.0, abs(best)):
            best = cur
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
    raise SolverFailureError(f"{phase} ended with maxiter")


def oracle_simplex(A: Nonzeros, b: np.ndarray, c: np.ndarray, start=None,
                     feas_tol=FEAS_TOL):
    """simplex_solve, plus the OracleBasis at the optimum (None when infeasible)."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    B = OracleBasis(A, b, start, feas_tol)

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    it1, bland1 = oracle_run_phase(B, phase1_cost, "phase 1")
    phase1_obj = float(phase1_cost[B.basis] @ B.x)
    if phase1_obj > feas_tol:
        return "infeasible", None, it1, f"phase-1 residual {phase1_obj:.3e}", None

    # Drive leftover artificial variables out of the basis; a row where no
    # structural column can pivot is redundant and is dropped.
    redundant = []
    for i in range(len(B.basis)):
        if B.basis[i] >= n:
            cols = np.nonzero(np.abs(B.price(B.inv[i])[:n]) > PIVOT_TOL)[0]
            if len(cols):
                B.pivot(i, int(cols[0]), B.column(int(cols[0])))
            else:
                redundant.append(i)
    B.drop(redundant)

    it2, bland2 = oracle_run_phase(B, c, "phase 2")
    bland = [f"phase {k}" for k, on in ((1, bland1), (2, bland2)) if on]
    msg = f"Bland's rule switched on in {' and '.join(bland)}" if bland else ""
    return "optimal", B.values(), it1 + it2, msg, B



def oracle_uniqueness_probe(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> bool:
    """Decide whether the LP optimum is unique.

    The optimal set is the feasible set restricted to the optimal face: the
    columns whose reduced cost at the base optimum is at most PIVOT_TOL in
    cost units (complementary slackness). The base optimum
    is a vertex, so its support columns are independent and it is the only
    optimizer iff no optimizer puts mass on a face column that the base
    leaves empty. One more phase on the base solve's basis, a feasible
    vertex of the face LP, maximizes that mass; columns off the face cost
    +inf and never enter. Returns True iff its maximizer coincides with the
    base optimizer within 1e-7 of mu's mass entrywise. Both optimizers must pass the
    feasibility gate of solve_lp, or SolverFailureError is raised.
    """
    prob = MotLp(mu, nu, p)
    c = prob.objective_vector()
    status, base_v, _, _, B = oracle_simplex(prob.A, prob.b, c, prob.start)
    if status != "optimal":
        raise SolverFailureError(f"probe requires an optimal base solve, got {status}")
    _gated_residual(prob, base_v, "LP")

    face = B.reduced_costs(c) <= PIVOT_TOL
    face[B.basis] = True        # rounding must not price a basic column off the face
    empty = base_v <= SUPPORT_TOL
    oracle_run_phase(B, np.where(face, -empty.astype(float), np.inf), "face solve")
    v = B.values()
    _gated_residual(prob, v, "face solve")
    return bool(np.abs(v - base_v).max() <= 1e-7)
