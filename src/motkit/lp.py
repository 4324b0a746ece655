"""Brute-force LP oracle for the discrete martingale transport problem.

The coupling weights pi[i, j] >= 0 over source atoms (x_i, mu_i) and target
atoms (y_j, nu_j) are constrained by

    row sums        sum_j pi[i, j]          = mu_i          (m rows)
    column sums     sum_i pi[i, j]          = nu_j          (n rows)
    row barycenters sum_j y_j[k] pi[i, j]   = x_i[k] mu_i   (d*m rows)

and the objective is sum pi[i, j] |x_i - y_j|^p. MotLp states the LP in
units where mu weighs 1, mu's mean is 0 and the largest cost is 1, so every
tolerance of the simplex is a constant (times MotLp.tol_unit). Every
constraint column has its 2 + d entries in rows i, m + j and m + n + d*i + k,
so A is stored as fixed-width columns (Nonzeros): one (2 + d, m*n) array of
rows and one of values, an exact zero kept in its slot. The system is solved by a
self-contained revised two-phase simplex over one basis object: it keeps
only the basis inverse B^-1, the basic values and their costs c_B, prices
the phase's candidate columns slot by slot, forms the entering column alone
and updates B^-1 by a rank-1 step (np.einsum's outer product, which is
np.outer's but gives +0.0 for a zero product, so no pivot moves), so
a pivot costs O(rows^2 + nnz(A)) time and memory (Dantzig pricing and
Harris's ratio test, with a Bland's-rule fallback once the objective
stalls); B^-1 is recomputed from the basic columns after every rows-many
updates. A and b are used as given: each row's artificial column carries
the sign that makes its basic value nonnegative. Phase 1 starts from the
north-west-corner coupling of the marginals sorted by first coordinate
(MotLp.start), which meets every row and column sum, so only the barycenter
rows begin on artificials. Infeasibility of phase 1 is exactly the
convex-order failure of the marginals; an unbounded phase, the iteration
limit and a singular basis raise SolverFailureError. For a 1-D pair that is
its own mirror image, solve_lp(mirror=True) solves the LP over the
couplings with pi(x, y) = pi(-x, -y) (`_quotient`), with about half the
rows and half the columns, and unfolds its optimum. uniqueness_probe
decides whether the optimum is unique with one more phase on the base
solve's basis, over its optimal face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, SolverFailureError
from .measures import Coupling, DiscreteMeasure, distance, scale_of

# tolerances in the LP's units (mu's mass 1, largest cost 1)
PIVOT_TOL = 1e-9
FEAS_TOL = 2e-8            # phase-1 residual; the start's basic values
SUPPORT_TOL = 2e-12        # entries at or below this are outside a support
RESIDUAL_TOL = 1e-9        # feasibility residual gate on reported optima
HARRIS_TOL = 1e-12         # Harris's window on basic values
MAX_VARIABLES = 250_000


class Nonzeros(NamedTuple):
    """A sparse matrix of the given shape as fixed-width columns: row and
    val are (slots, columns) arrays, and slot s of column q adds val[s, q]
    to A[row[s, q], q]. A slot of value 0 adds nothing, whatever its row."""

    row: np.ndarray
    val: np.ndarray
    shape: tuple


def _price(y: np.ndarray, row: np.ndarray, val: np.ndarray) -> np.ndarray:
    """y @ the columns stored as fixed-width slots (row, val)."""
    gathered = y[row]
    gathered *= val
    return gathered.sum(axis=0)


class _Basis:
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
    grow with the pivot count. Each phase sets its cost (set_cost), and the
    basic costs c_B are carried through its pivots.
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
        return _price(y, self.row, self.val)

    def column(self, q: int) -> np.ndarray:
        """B^-1 times column q."""
        return self.inv[:, self.row[:, q]] @ self.val[:, q]

    def set_cost(self, cost: np.ndarray):
        """Start a phase of objective `cost` over the first len(cost)
        columns, its entering candidates: c_B = cost[basis] is carried from
        here through every pivot, and the candidates' slots are copied once,
        contiguous, for pricing. A drop leaves both stale until the next
        phase sets them."""
        self.cost = cost
        self.cb = cost[self.basis]
        self.cand = self.row[:, :len(cost)].copy(), self.val[:, :len(cost)].copy()

    def reduced_costs(self) -> np.ndarray:
        """The phase's cost - y @ [A S] over its candidates, y = c_B B^-1."""
        return self.cost - _price(self.cb @ self.inv, *self.cand)

    def values(self) -> np.ndarray:
        """The basic solution over the n columns of A, negatives clipped to 0."""
        v = np.zeros(self.n)
        v[self.basis] = self.x
        v[v < 0] = 0.0
        return v

    def pivot(self, row: int, q: int, u: np.ndarray):
        """Column q (u = B^-1 a_q) enters in place of basic position row,
        and c_B takes its cost."""
        theta = self.x[row] / u[row]
        self.x -= theta * u
        self.x[row] = theta
        pivot_row = self.inv[row] / u[row]
        # np.outer's products, but faster; a zero product comes out +0.0
        self.inv -= np.einsum("i,j->ij", u, pivot_row)
        self.inv[row] = pivot_row
        self.basis[row] = q
        self.cb[row] = self.cost[q]
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


def _run_phase(B: _Basis, cost: np.ndarray, phase: str):
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
    B.set_cost(cost)
    for it in range(maxiter):
        d = B.reduced_costs()
        if bland:
            neg = d < -PIVOT_TOL
            col = int(neg.argmax())
            if not neg[col]:
                return it, bland
        else:
            col = int(d.argmin())
            if d[col] >= -PIVOT_TOL:
                return it, bland
        u = B.column(col)
        # relative to the column's scale, so rounding noise never pivots
        pos = (u > PIVOT_TOL * max(1.0, float(abs(u).max()))).nonzero()[0]
        if not len(pos):
            raise SolverFailureError(f"{phase} ended with unbounded")
        x_pos, u_pos = B.x[pos], u[pos]
        ratios = x_pos / u_pos
        best_ratio = ratios.min()
        thresh = best_ratio + 1e-12 * max(1.0, abs(best_ratio))
        if not bland:   # Harris's bound, in place on the gathered x
            x_pos += HARRIS_TOL
            x_pos /= u_pos
            thresh = max(thresh, float(x_pos.min()))
        ties = pos[ratios <= thresh]
        row = int(ties[B.basis[ties].argmin()] if bland else ties[u[ties].argmax()])
        B.pivot(row, col, u)
        cur = float(B.cb @ B.x)
        if cur < best - 1e-12 * max(1.0, abs(best)):
            best = cur
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
    raise SolverFailureError(f"{phase} ended with maxiter")


def _revised_simplex(A: Nonzeros, b: np.ndarray, c: np.ndarray, start=None,
                     feas_tol=FEAS_TOL):
    """simplex_solve, plus the _Basis at the optimum (None when infeasible)."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    B = _Basis(A, b, start, feas_tol)

    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    it1, bland1 = _run_phase(B, phase1_cost, "phase 1")
    phase1_obj = float(B.cb @ B.x)
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

    it2, bland2 = _run_phase(B, c, "phase 2")
    bland = [f"phase {k}" for k, on in ((1, bland1), (2, bland2)) if on]
    msg = f"Bland's rule switched on in {' and '.join(bland)}" if bland else ""
    return "optimal", B.values(), it1 + it2, msg, B


def simplex_solve(A: Nonzeros, b: np.ndarray, c: np.ndarray, start=None,
                  feas_tol=FEAS_TOL):
    """min c@v subject to A v = b, v >= 0 (revised two-phase simplex).

    The tolerances are constants for b and c of order 1, as MotLp states
    them. Only the basis inverse, the basic values and their costs are
    kept; each pivot prices the phase's candidate columns in A's
    fixed-width layout and updates B^-1 by a rank-1 step. Phase
    1 starts from `start`, len(b) columns of [A S] (column n + k is row k's
    artificial) whose basic solution is nonnegative up to feas_tol, or else
    from the all-artificial basis. Returns (status, v, iterations, message);
    status is optimal, or infeasible when phase 1 leaves a residual above
    feas_tol. Redundant equality rows are dropped after phase 1. On an
    optimal solve the message says whether Bland's rule was switched on. An
    unbounded phase, one that reaches its iteration limit and a singular
    basis raise SolverFailureError.
    """
    return _revised_simplex(A, b, c, start, feas_tol)[:4]


def _staircase(a: np.ndarray, b: np.ndarray):
    """The north-west-corner walk of masses a against masses b, each in walk
    order: its m + n - 1 cells (i, j), as two index arrays, and whether the
    transport row it leaves unbalanced is b's last (else a's last). A step
    advances i when a's cumulative mass ends first, i on ties; the last
    atom of each side ends no step."""
    m, n = len(a), len(b)
    ends = np.concatenate([np.cumsum(a)[:-1], np.cumsum(b)[:-1]])
    advances_j = np.repeat([0, 1], [m - 1, n - 1])
    steps = advances_j[np.lexsort((advances_j, ends))]
    j = np.concatenate([[0], np.cumsum(steps)])
    return np.arange(m + n - 1) - j, j, not (len(steps) and steps[-1] == 0)


def _quotient(w, v, x, y, balanced: bool) -> tuple:
    """(A, b, start) of the LP over mirror-symmetric couplings,
    pi(x, y) = pi(-x, -y), of a 1-D pair whose sorted positions and masses
    are exact mirror images (x = -x[::-1], w = w[::-1], and so for y, v),
    in MotLp's units with centre 0; start is None unless `balanced`.

    The mirror of cell k of the raveled (m, n) matrix is cell
    m*n - 1 - k, so the quotient's columns are the cells from m*n // 2
    on: every (x > 0, y), and (0, y >= 0) when mu has an atom at 0. Its
    rows are mu's rows for x >= 0, one row per |y| (0 first when nu has
    an atom there), and the barycenter rows for x > 0; mu's row at 0 has
    no barycenter row, since its mean is 0 by symmetry. A column has 1
    in its mu row, 1 in its |y| row and y/L in its barycenter row,
    except that a column standing for two cells of one row counts both:
    (0, y != 0) has 2 in mu's row at 0 and (x != 0, 0) has 2 in nu's;
    (0, 0) stands for itself. The objective is the cells' (the full
    LP's over 2, since c(0, 0) = 0). The start is MotLp.start's
    staircase on the folded marginals, the atoms x >= 0 against |y| in
    increasing order with an atom at 0 at half its mass, which puts its
    cells on the arcs y >= 0.
    """
    m, n = len(w), len(v)
    hm, hn = m // 2, n // 2          # atoms below 0 on each side
    mq, nq = m - hm, n - hn          # rows x >= 0 and |y|
    k = np.arange(m * n // 2, m * n)
    ii, jj = np.divmod(k, n)
    alone = 2 * k == m * n - 1       # the cell (0, 0)
    zero_x, zero_y = 2 * ii == m - 1, 2 * jj == n - 1
    A = Nonzeros(np.vstack([ii - hm, mq + np.maximum(jj, n - 1 - jj) - hn,
                            np.where(zero_x, ii - hm, nq + ii)]),
                 np.vstack([np.where(zero_x & ~alone, 2.0, 1.0),
                            np.where(zero_y & ~alone, 2.0, 1.0),
                            np.where(zero_x, 0.0, y[jj])]),
                 (mq + nq + hm, len(k)))
    b = np.concatenate([w[hm:], v[hn:], x[mq:] * w[mq:]])
    for arr in (A.row, A.val, b):
        arr.setflags(write=False)
    if not balanced:
        return A, b, None
    a, c = w[hm:].copy(), v[hn:].copy()
    a[:m % 2] *= 0.5                 # an atom at 0 walks at half its mass
    c[:n % 2] *= 0.5
    i, j, last_j = _staircase(a, c)
    last = mq + nq - 1 if last_j else mq - 1
    cells = (hm + i) * n + hn + j - k[0]
    rows = len(k) + np.concatenate([[last], np.arange(mq + nq, mq + nq + hm)])
    start = np.concatenate([cells, rows])
    start.setflags(write=False)
    return A, b, start


class MotLp:
    """Assembled LP data for a martingale transport instance.

    A, b and objective_vector() are the LP in the units of
    `measures.scale_of(mu, nu)`: masses over mass_unit, mu's mass; positions
    about mu's mean, over L; costs over cost_unit, the largest (or 1). C
    keeps the input's costs: an optimum v is the coupling matrix
    mass_unit * v, of cost C . that matrix. The feasibility gates (the
    start's mass gap, FEAS_TOL, RESIDUAL_TOL) widen by tol_unit: `scale`'s
    mass over mass_unit, for mu, nu the remainder of a pair of that scale.

    `start` is a phase-1 basis for simplex_solve built from the marginals:
    the north-west-corner coupling of mu against nu, both sorted by first
    coordinate (stably), which in 1-D is the quantile coupling. It is walked
    as a staircase of m + n - 1 cells, each step advancing exactly one of
    i and j (the one whose cumulative mass ends first, i on ties; the other
    once one is at its end). Zero cells are kept, so the cells always form
    a spanning tree of the m + n transport rows. An artificial on the
    walk's last vertex, the transport row the cells leave unbalanced, and
    one on each of the d*m barycenter rows complete the basis, which is
    block triangular [[T, 0], [Y, I]] with T nonsingular. The same start
    serves both senses. It is None when the total masses differ by more
    than FEAS_TOL * tol_unit: such pairs are infeasible, and phase 1 from the
    artificials certifies that. Without this rule a cell of the tree goes
    negative by up to the mass difference (down to -3.9 on spread pairs
    whose nu masses were scaled by 0.5 to 5); with it, by at most the same
    bound, which _Basis clips. A cost beyond the float range is an
    InputError.

    With `mirror`, a 1-D pair must be its own mirror image exactly (sorted
    positions x = -x[::-1] with masses w = w[::-1], on both sides), or
    SolverFailureError is raised. `quotient` then holds (A, b, start) of
    the LP over mirror-symmetric couplings (`_quotient`), with about half
    the rows and half the columns, which solve_lp solves in place of the
    full LP; `start` is None, and A and b stay the full LP, on which
    `_solution` gates the unfolded optimum. MAX_VARIABLES still counts
    m * n.
    """

    def __init__(self, mu: DiscreteMeasure, nu: DiscreteMeasure, p: float,
                 sense: str = "min", scale: tuple | None = None, mirror: bool = False):
        self.mu, self.nu, self.p, self.sense, self.scale = mu, nu, p, sense, scale
        if mu.dim != nu.dim:
            raise InputError("marginals must share dim")
        if len(mu) == 0 or len(nu) == 0:
            raise InputError("marginals must be nonempty")
        m, n, d = len(mu), len(nu), mu.dim
        if m * n > MAX_VARIABLES:
            raise InputError(f"instance too large: {m}x{n} > {MAX_VARIABLES} variables")
        if sense not in ("min", "max"):
            raise InputError("sense must be 'min' or 'max'")
        if not 0.0 < p < np.inf:
            raise InputError(f"cost exponent p={p} must be positive and finite")
        if mirror:
            if d != 1:
                raise InputError("the reflection quotient needs 1-D marginals")
            for name, meas in (("mu", mu), ("nu", nu)):
                if not (np.array_equal(meas.positions, -meas.positions[::-1])
                        and np.array_equal(meas.masses, meas.masses[::-1])):
                    raise SolverFailureError(
                        f"the reflection quotient needs {name} to be its own mirror image")
        xpos, ypos = mu.points(), nu.points()
        with np.errstate(over="ignore"):  # the overflow is the error reported
            C = distance(xpos[:, None], ypos) ** p
        if not np.isfinite(C).all():
            raise InputError("a transport cost |x - y|^p overflows the float range")
        mass_unit, centre, spread = scale_of(mu, nu)
        w, v = mu.masses / mass_unit, nu.masses / mass_unit
        xs, ys = (xpos - centre) / spread, (ypos - centre) / spread

        # column i*n + j has 1 in rows i and m + j and y_j[k] in row m + n + d*i + k
        ii, jj = np.divmod(np.arange(m * n), n)
        A = Nonzeros(np.vstack([ii, m + jj, m + n + d * ii + np.arange(d)[:, None]]),
                     np.vstack([np.ones((2, m * n)), ys[jj].T]),
                     (m + n + d * m, m * n))
        b = np.concatenate([w, v, (xs * w[:, None]).ravel()])
        for arr in (A.row, A.val, b, C):
            arr.setflags(write=False)
        self.A, self.b, self.C = A, b, C
        self.mass_unit, self.cost_unit = mass_unit, float(C.max()) or 1.0
        self.tol_unit = scale[0] / mass_unit if scale else 1.0
        balanced = abs(w.sum() - v.sum()) <= FEAS_TOL * self.tol_unit
        self.quotient = _quotient(w, v, xpos[:, 0] / spread, ypos[:, 0] / spread,
                                  balanced) if mirror else None
        self.start = self._start() if balanced and not mirror else None

    def _start(self) -> np.ndarray:
        mu, nu = self.mu, self.nu
        m, n, d = len(mu), len(nu), mu.dim
        oi = np.argsort(mu.points()[:, 0], kind="stable")
        oj = np.argsort(nu.points()[:, 0], kind="stable")
        i, j, last_j = _staircase(mu.masses[oi], nu.masses[oj])
        cells = oi[i] * n + oj[j]
        last = m + oj[n - 1] if last_j else oi[m - 1]
        rows = m * n + np.concatenate([[last], np.arange(m + n, m + n + d * m)])
        start = np.concatenate([cells, rows])
        start.setflags(write=False)
        return start

    def objective_vector(self) -> np.ndarray:
        c = self.C.ravel() / self.cost_unit
        return -c if self.sense == "max" else c


@dataclass(frozen=True)
class LpSolution:
    """Outcome of an LP solve; matrix is the (m, n) coupling by atom index."""

    status: str                      # optimal | infeasible; failures raise
    coupling: Coupling | None
    objective: float | None
    matrix: np.ndarray | None
    residuals: dict                  # in the LP's units (mu's mass 1)
    iterations: int
    message: str = ""


def _gated_residual(prob: MotLp, v: np.ndarray, solve: str) -> float:
    """Max-abs residual of A v = b; past RESIDUAL_TOL * tol_unit, SolverFailureError."""
    Av = np.bincount(prob.A.row.ravel(), weights=(prob.A.val * v).ravel(),
                     minlength=len(prob.b))
    resid = float(np.abs(Av - prob.b).max())
    if resid > RESIDUAL_TOL * prob.tol_unit:
        raise SolverFailureError(f"{solve} failed: feasibility residual {resid:.3e}",
                                 residual=resid)
    return resid


def _solution(prob: MotLp, status: str, v, iters: int, msg: str) -> LpSolution:
    """Gate a simplex result on its feasibility residual and read off the
    coupling in the input's units; a missed gate raises SolverFailureError."""
    if status == "infeasible":
        return LpSolution("infeasible", None, None, None, {}, iters, msg)
    mu, nu = prob.mu, prob.nu
    m, n = len(mu), len(nu)
    if prob.quotient is not None:   # cell k and its mirror m*n - 1 - k share a column
        v = np.concatenate([v[::-1][:m * n // 2], v])
    residuals = {"feasibility": _gated_residual(prob, v, "LP")}

    v = v.reshape(m, n)
    mat = prob.mass_unit * v
    objective = float(np.tensordot(prob.C, mat))
    ii, jj = np.nonzero(v > SUPPORT_TOL)
    pi = Coupling(mu.positions[ii], nu.positions[jj], mat[ii, jj], dim=mu.dim)
    return LpSolution("optimal", pi, objective, mat, residuals, iters, msg)


def solve_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float,
             sense: str = "min", scale=None, mirror: bool = False) -> LpSolution:
    """Solve the discrete martingale transport LP to optimality.

    Infeasibility is equivalent to the marginals not being in convex order;
    a failed simplex or a missed residual gate raises SolverFailureError.
    With `mirror`, over the mirror-symmetric couplings of a pair that is
    its own mirror image (see MotLp); the result has the full LP's form.
    """
    prob = MotLp(mu, nu, p, sense, scale, mirror)
    A, b, start = prob.quotient or (prob.A, prob.b, prob.start)
    c = prob.objective_vector()[-A.shape[1]:]   # the quotient's columns are the last cells
    return _solution(prob, *simplex_solve(A, b, c, start, FEAS_TOL * prob.tol_unit))


def uniqueness_probe(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> bool:
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
    status, base_v, _, _, B = _revised_simplex(prob.A, prob.b, c, prob.start)
    if status != "optimal":
        raise SolverFailureError(f"probe requires an optimal base solve, got {status}")
    _gated_residual(prob, base_v, "LP")

    face = B.reduced_costs() <= PIVOT_TOL     # phase 2's cost is c
    face[B.basis] = True        # rounding must not price a basic column off the face
    empty = base_v <= SUPPORT_TOL
    _run_phase(B, np.where(face, -empty.astype(float), np.inf), "face solve")
    v = B.values()
    _gated_residual(prob, v, "face solve")
    return bool(np.abs(v - base_v).max() <= 1e-7)
