"""Brute-force LP oracle for the discrete martingale transport problem.

The coupling weights pi[i, j] >= 0 over source atoms (x_i, mu_i) and target
atoms (y_j, nu_j) are constrained by

    row sums        sum_j pi[i, j]          = mu_i          (m rows)
    column sums     sum_i pi[i, j]          = nu_j          (n rows)
    row barycenters sum_j y_j[k] pi[i, j]   = x_i[k] mu_i   (d*m rows)

and the objective is sum pi[i, j] |x_i - y_j|^p. Only the 2 + d nonzeros of
each constraint column are stored. The system is solved by a self-contained
revised two-phase simplex: it keeps only the basis inverse B^-1 and the basic
values, prices the nonzeros of A, forms the entering column alone and updates
B^-1 by a rank-1 step, so a pivot costs O(rows^2 + nnz(A)) time and memory
(Dantzig pricing with a Bland's-rule fallback once the objective stalls);
B^-1 is recomputed from the basic columns after every rows-many updates.
Infeasibility of phase 1 is exactly the convex-order failure of the
marginals. uniqueness_probe decides whether the optimum is unique with one
more LP, over the optimal face of the base solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, SolverFailureError
from .measures import DiscreteMeasure
from .mot1d import Coupling

PIVOT_TOL = 1e-9
FEAS_TOL_FACTOR = 1e-8     # phase-1 residual threshold, times total mass
RESIDUAL_RTOL = 1e-9       # feasibility residual gate on reported optima
MAX_VARIABLES = 250_000


class Nonzeros(NamedTuple):
    """A sparse matrix of the given shape as its nonzero entries
    val[k] = A[row[k], col[k]], sorted by column and then by row."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple


class _Basis:
    """A simplex basis of [A I] v = b (rows with b < 0 negated): B^-1, the
    basic columns and their values, over the nonzeros of [A I] grouped by
    column.

    Column j < n is column j of A; column n + k is the artificial unit
    vector of row k. B^-1 is updated by rank-1 steps and recomputed from the
    basic columns after every len(basis) of them, so rounding does not grow
    with the pivot count.
    """

    def __init__(self, A: Nonzeros, b: np.ndarray):
        m, self.n = A.shape
        self.width = self.n + m
        sign = np.where(b < 0, -1.0, 1.0)
        self._set_nonzeros(np.concatenate([A.row, np.arange(m)]),
                           np.concatenate([A.col, np.arange(self.n, self.width)]),
                           np.concatenate([A.val * sign[A.row], np.ones(m)]))
        self.b = np.abs(b)
        self.inv = np.eye(m)
        self.basis = np.arange(self.n, self.width)
        self.x = self.b.copy()
        self.updates = 0

    def _set_nonzeros(self, nz_row, nz_col, nz_val):
        self.nz_row, self.nz_col, self.nz_val = nz_row, nz_col, nz_val
        self.nz_start = np.searchsorted(nz_col, np.arange(self.width + 1))

    def price(self, y: np.ndarray) -> np.ndarray:
        """y @ [A I]."""
        return np.bincount(self.nz_col, weights=y[self.nz_row] * self.nz_val,
                           minlength=self.width)

    def column(self, q: int) -> np.ndarray:
        """B^-1 times column q."""
        lo, hi = self.nz_start[q], self.nz_start[q + 1]
        return self.inv[:, self.nz_row[lo:hi]] @ self.nz_val[lo:hi]

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        """cost - y @ [A I] over the first len(cost) columns, y = c_B B^-1."""
        return cost - self.price(cost[self.basis] @ self.inv)[:len(cost)]

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
        for pos, q in enumerate(self.basis):
            lo, hi = self.nz_start[q], self.nz_start[q + 1]
            B[self.nz_row[lo:hi], pos] = self.nz_val[lo:hi]
        self.inv = np.linalg.inv(B)
        self.x = self.inv @ self.b
        self.updates = 0

    def drop(self, rows: list):
        """Delete basic positions `rows`, each held by the artificial of a
        redundant constraint, together with those constraints: B^-1 loses
        the position's row and the constraint's column."""
        keep = np.ones(len(self.basis), dtype=bool)
        keep[rows] = False
        keep_con = np.ones(len(self.basis), dtype=bool)
        keep_con[self.basis[rows] - self.n] = False
        self.inv = self.inv[keep][:, keep_con]
        self.basis = self.basis[keep]
        self.x = self.x[keep]
        self.b = self.b[keep_con]
        new_row = np.cumsum(keep_con) - 1
        sel = keep_con[self.nz_row]
        self._set_nonzeros(new_row[self.nz_row[sel]], self.nz_col[sel],
                           self.nz_val[sel])


def _run_phase(B: _Basis, cost: np.ndarray, maxiter: int, stall_limit: int):
    """Pivot until optimal. Returns (status, iterations, reduced costs,
    whether Bland's rule was switched on).

    Entering candidates are the len(cost) first columns. Dantzig pricing
    switches permanently to Bland's rule after stall_limit iterations
    without objective progress.
    """
    bland = False
    stall = 0
    best = np.inf
    for it in range(maxiter):
        d = B.reduced_costs(cost)
        if bland:
            cand = np.nonzero(d < -PIVOT_TOL)[0]
            if len(cand) == 0:
                return "optimal", it, d, bland
            col = int(cand[0])
        else:
            col = int(np.argmin(d))
            if d[col] >= -PIVOT_TOL:
                return "optimal", it, d, bland
        u = B.column(col)
        # relative to the column's scale, so rounding noise never pivots
        pos = u > PIVOT_TOL * max(1.0, float(np.abs(u).max()))
        if not pos.any():
            return "unbounded", it, d, bland
        ratios = np.full(len(u), np.inf)
        ratios[pos] = B.x[pos] / u[pos]
        best_ratio = ratios.min()
        thresh = best_ratio + 1e-12 * max(1.0, abs(best_ratio))
        ties = np.nonzero(ratios <= thresh)[0]
        row = int(ties[np.argmin(B.basis[ties])])
        B.pivot(row, col, u)
        cur = float(cost[B.basis] @ B.x)
        if cur < best - 1e-12 * max(1.0, abs(best)):
            best = cur
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
    return "maxiter", maxiter, None, bland


def _revised_simplex(A: Nonzeros, b: np.ndarray, c: np.ndarray,
                     feas_tol: float):
    """simplex_solve, plus the reduced costs c - y @ A at the optimum
    (None unless optimal)."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    B = _Basis(A, b)

    maxiter = max(2000, 25 * (m + n))
    stall_limit = 10 * (m + n)
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    status, it1, _, bland1 = _run_phase(B, phase1_cost, maxiter, stall_limit)
    if status != "optimal":
        return "failure", None, it1, f"phase 1 ended with {status}", None
    phase1_obj = float(phase1_cost[B.basis] @ B.x)
    if phase1_obj > feas_tol:
        return ("infeasible", None, it1, f"phase-1 residual {phase1_obj:.3e}",
                None)

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

    status, it2, d, bland2 = _run_phase(B, c, maxiter, stall_limit)
    if status != "optimal":
        return ("failure", None, it1 + it2, f"phase 2 ended with {status}",
                None)
    v = np.zeros(n)
    v[B.basis] = B.x
    v[v < 0] = 0.0
    bland = [f"phase {k}" for k, on in ((1, bland1), (2, bland2)) if on]
    msg = f"Bland's rule switched on in {' and '.join(bland)}" if bland else ""
    return "optimal", v, it1 + it2, msg, d


def simplex_solve(A: Nonzeros, b: np.ndarray, c: np.ndarray,
                  feas_tol: float):
    """min c@v subject to A v = b, v >= 0 (revised two-phase simplex).

    Only the basis inverse and the basic values are kept; each pivot prices
    the nonzeros of A and updates B^-1 by a rank-1 step. Returns (status, v,
    iterations, message); status is one of optimal / infeasible / failure.
    Redundant equality rows are dropped after phase 1. On an optimal solve
    the message says whether Bland's rule was switched on.
    """
    return _revised_simplex(A, b, c, feas_tol)[:4]


@dataclass(frozen=True)
class MotLp:
    """Assembled LP data for a martingale transport instance."""

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    p: float
    sense: str = "min"
    A: Nonzeros = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    C: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu, nu = self.mu, self.nu
        if mu.dim != nu.dim:
            raise InputError("marginals must share dim")
        if len(mu) == 0 or len(nu) == 0:
            raise InputError("marginals must be nonempty")
        m, n, d = len(mu), len(nu), mu.dim
        if m * n > MAX_VARIABLES:
            raise InputError(f"instance too large: {m}x{n} > {MAX_VARIABLES} variables")
        if self.sense not in ("min", "max"):
            raise InputError("sense must be 'min' or 'max'")
        if self.p <= 0:
            raise InputError("cost exponent must be positive")
        xpos, ypos = mu.positions.reshape(m, d), nu.positions.reshape(n, d)
        diff = xpos[:, None, :] - ypos[None, :, :]
        C = (np.abs(diff[..., 0]) if d == 1 else np.linalg.norm(diff, axis=2)) ** self.p

        # column i*n + j has rows i, m + j, m + n + i*d + k; exact zeros are dropped
        ii, jj = np.divmod(np.arange(m * n), n)
        row = np.column_stack([ii, m + jj, m + n + d * ii[:, None] + np.arange(d)])
        val = np.column_stack([np.ones((m * n, 2)), ypos[jj]])
        nz = val.ravel() != 0
        A = Nonzeros(row.ravel()[nz], np.repeat(np.arange(m * n), 2 + d)[nz],
                     val.ravel()[nz], (m + n + d * m, m * n))
        b = np.concatenate([mu.masses, nu.masses, (xpos * mu.masses[:, None]).ravel()])
        for arr in (A.row, A.col, A.val, b, C):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "C", C)

    def objective_vector(self) -> np.ndarray:
        c = self.C.ravel()
        return -c if self.sense == "max" else c.copy()


@dataclass(frozen=True)
class LpSolution:
    """Outcome of an LP solve; matrix is the (m, n) coupling by atom index."""

    status: str                      # optimal | infeasible; failures raise
    coupling: Coupling | None
    objective: float | None
    matrix: np.ndarray | None
    residuals: dict
    iterations: int
    message: str = ""


def _feas_tol(prob: MotLp) -> float:
    return FEAS_TOL_FACTOR * max(1.0, prob.mu.total_mass() + prob.nu.total_mass())


def _support_cutoff(prob: MotLp) -> float:
    """Entries at or below this are outside a solution's support."""
    return 1e-12 * max(1.0, prob.mu.total_mass() + prob.nu.total_mass())


def _gated_residual(prob: MotLp, v: np.ndarray, solve: str) -> float:
    """Max-abs residual of A v = b; past the gate, SolverFailureError."""
    Av = np.bincount(prob.A.row, weights=prob.A.val * v[prob.A.col], minlength=len(prob.b))
    resid = float(np.abs(Av - prob.b).max())
    if resid > RESIDUAL_RTOL * max(1.0, float(np.abs(prob.b).max())):
        raise SolverFailureError(f"{solve} failed: feasibility residual {resid:.3e}",
                                 residual=resid)
    return resid


def _solution(prob: MotLp, status: str, v, iters: int, msg: str) -> LpSolution:
    """Gate a simplex result on its feasibility residual and read off the
    coupling; a failed solve or a missed gate raises SolverFailureError."""
    if status == "infeasible":
        return LpSolution("infeasible", None, None, None, {}, iters, msg)
    if status != "optimal":
        raise SolverFailureError(f"LP failed: {msg}")
    residuals = {"feasibility": _gated_residual(prob, v, "LP")}

    mu, nu = prob.mu, prob.nu
    m, n = len(mu), len(nu)
    mat = v.reshape(m, n)
    objective = float(np.tensordot(prob.C, mat))
    ii, jj = np.nonzero(mat > _support_cutoff(prob))
    pi = Coupling(mu.positions[ii], nu.positions[jj], mat[ii, jj], dim=mu.dim)
    return LpSolution("optimal", pi, objective, mat, residuals, iters, msg)


def solve_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float,
             sense: str = "min") -> LpSolution:
    """Solve the discrete martingale transport LP to optimality.

    Infeasibility is equivalent to the marginals not being in convex order;
    a failed simplex or a missed residual gate raises SolverFailureError.
    """
    prob = MotLp(mu, nu, p, sense)
    return _solution(prob, *simplex_solve(prob.A, prob.b,
                                          prob.objective_vector(), _feas_tol(prob)))


def diagonal_mass(sol: LpSolution) -> float:
    """Mass the optimal coupling keeps fixed (entries with x = y)."""
    if sol.status != "optimal":
        raise InputError("diagonal_mass requires an optimal solution")
    pi = sol.coupling
    if len(pi) == 0:
        return 0.0
    if pi.dim == 1:
        on_diag = np.abs(pi.xs - pi.ys) <= 1e-12
    else:
        on_diag = np.linalg.norm(pi.xs - pi.ys, axis=1) <= 1e-12
    return float(pi.masses[on_diag].sum())


def uniqueness_probe(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> bool:
    """Decide whether the LP optimum is unique.

    The optimal set is the feasible set restricted to the optimal face: the
    columns whose reduced cost at the base optimum is at most
    PIVOT_TOL * max(1, max|C|) (complementary slackness). The base optimum
    is a vertex, so its support columns are independent and it is the only
    optimizer iff no optimizer puts mass on a face column that the base
    leaves empty. One LP over the face maximizes that mass; returns True iff
    its maximizer coincides with the base optimizer within 1e-7 entrywise.
    Both solves must pass the feasibility gate of solve_lp, or
    SolverFailureError is raised.
    """
    prob = MotLp(mu, nu, p)
    feas_tol = _feas_tol(prob)
    *result, reduced = _revised_simplex(prob.A, prob.b,
                                        prob.objective_vector(), feas_tol)
    base = _solution(prob, *result)
    if base.status != "optimal":
        raise SolverFailureError(f"probe requires an optimal base solve, got {base.status}")

    base_v = base.matrix.ravel()
    face = np.flatnonzero(reduced <= PIVOT_TOL * max(1.0, float(np.abs(prob.C).max())))
    empty = (base_v[face] <= _support_cutoff(prob)).astype(float)
    A, on_face = prob.A, np.isin(prob.A.col, face)
    A_face = Nonzeros(A.row[on_face], np.searchsorted(face, A.col[on_face]),
                      A.val[on_face], (len(prob.b), len(face)))
    status, v_face, _, msg = simplex_solve(A_face, prob.b, -empty, feas_tol)
    if status != "optimal":
        raise SolverFailureError(f"face solve failed: {status} {msg}")
    v = np.zeros(len(base_v))
    v[face] = v_face
    _gated_residual(prob, v, "face solve")
    return bool(np.abs(v - base_v).max() <= 1e-7)
