import numpy as np
import pytest
from scipy.optimize import linprog

import motkit.lp
from motkit import (Coupling, DiscreteMeasure, InputError, MotLp, RadialAtoms,
                    SolverFailureError, common_mass_split, cost, detect_separation,
                    solve, solve_lp, solve_radial, symmetrize_coupling,
                    uniqueness_probe, validate_coupling)
from motkit.lp import (FEAS_TOL, MAX_VARIABLES, RESIDUAL_TOL, Nonzeros, _Basis,
                       _revised_simplex, simplex_solve)
from motkit.mot1d import solve_sweep
from instances import (assert_same_coupling, hole_profiles, induced_remainder,
                       overlap_profiles, overlapping_instance, ring_directions,
                       ring_instance, rotation_2d, scipy_matrix, separated_instance,
                       shell_atoms, split_grid_failure, split_grid_instance,
                       spread_pair_instance)
import lemmas
from lemmas import diagonal_mass, oracle_simplex, oracle_uniqueness_probe


def nonzeros(dense: np.ndarray) -> Nonzeros:
    """A small dense constraint matrix in the fixed-width layout: slot s of
    every column is row s."""
    return Nonzeros(np.broadcast_to(np.arange(len(dense))[:, None], dense.shape),
                    dense, dense.shape)


class TestExamples:
    def test_forced_single_row(self):
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
        sol = solve_lp(mu, nu, 1.0)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(sol.matrix, [[0.5, 0.5]])

    def test_reverse_pair_infeasible(self):
        mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([0.0], [1.0])
        assert solve_lp(mu, nu, 1.0).status == "infeasible"

    def test_two_by_two(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        nu = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
        sol = solve_lp(mu, nu, 1.0)
        assert sol.objective == pytest.approx(1.875, abs=1e-10)


class TestAgainstScipy:
    def test_objective_matches_highs(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            mu, nu = separated_instance(rng, kmax=8)
            p = float(rng.choice([0.3, 0.5, 1.0]))
            prob = MotLp(mu, nu, p)
            ref = linprog(prob.C.ravel(), A_eq=scipy_matrix(prob.A), b_eq=prob.b,
                          bounds=(0, None), method="highs")
            sol = solve_lp(mu, nu, p)
            assert sol.status == "optimal" and ref.status == 0
            assert sol.objective == pytest.approx(prob.mass_unit * ref.fun, abs=1e-8)

    def test_objective_matches_highs_40x80(self):
        for seed in range(2):
            mu, nu = spread_pair_instance(np.random.default_rng([41, seed]), 40)
            prob = MotLp(mu, nu, 1.0)
            ref = linprog(prob.C.ravel(), A_eq=scipy_matrix(prob.A), b_eq=prob.b,
                          bounds=(0, None), method="highs")
            sol = solve_lp(mu, nu, 1.0)
            assert sol.status == "optimal" and ref.status == 0
            assert sol.objective == pytest.approx(prob.mass_unit * ref.fun, abs=1e-8)

    def test_infeasibility_matches_highs(self):
        rng = np.random.default_rng(43)
        for _ in range(4):
            inner, spread = separated_instance(rng, kmax=5)
            prob = MotLp(spread, inner, 1.0)  # reversed roles: infeasible
            ref = linprog(prob.C.ravel(), A_eq=scipy_matrix(prob.A), b_eq=prob.b,
                          bounds=(0, None), method="highs")
            assert solve_lp(spread, inner, 1.0).status == "infeasible"
            assert ref.status == 2


class TestFeasibilityAndDuality:
    def test_residuals_small(self):
        rng = np.random.default_rng(47)
        mu, nu = separated_instance(rng)
        sol = solve_lp(mu, nu, 1.0)
        assert sol.residuals["feasibility"] <= 1e-9

    def test_weak_duality_against_sweep(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            mu, nu = separated_instance(rng)
            pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
            for p in (0.5, 1.0):
                sol = solve_lp(mu, nu, p)
                assert cost(pi, p) >= sol.objective - 1e-9

    def test_max_sense_dominates_min(self):
        rng = np.random.default_rng(59)
        mu, nu = overlapping_instance(rng)
        lo = solve_lp(mu, nu, 1.0, sense="min")
        hi = solve_lp(mu, nu, 1.0, sense="max")
        assert hi.objective >= lo.objective - 1e-12

    def test_max_sense_matches_highs(self):
        rng = np.random.default_rng(97)
        mu, nu = separated_instance(rng, kmax=6)
        prob = MotLp(mu, nu, 0.5, sense="max")
        ref = linprog(-prob.C.ravel(), A_eq=scipy_matrix(prob.A), b_eq=prob.b,
                      bounds=(0, None), method="highs")
        sol = solve_lp(mu, nu, 0.5, sense="max")
        assert sol.objective == pytest.approx(-prob.mass_unit * ref.fun, abs=1e-8)


CHVATAL_CYCLING = (np.array([[0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
                             [0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
                             [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]),
                   np.array([0.0, 0.0, 1.0]),
                   np.array([-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0]))


class TestRevisedSimplex:
    def test_redundant_rows_dropped(self):
        # identical marginals: the coupling is forced onto the diagonal and
        # the row, column and barycenter rows are linearly dependent
        mu = DiscreteMeasure(np.linspace(-1.0, 1.0, 7),
                             [0.1, 0.2, 0.05, 0.15, 0.2, 0.1, 0.2])
        sol = solve_lp(mu, mu, 1.0)
        assert sol.status == "optimal"
        assert np.abs(sol.matrix - np.diag(mu.masses)).max() <= 1e-12
        # a repeated (scaled) row, and a row stated with negative sign
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, -1.0, -1.0]])
        b = np.array([1.0, 2.0, -1.0])
        status, v, _, _ = simplex_solve(nonzeros(A), b, np.array([1.0, 3.0, 1.0]))
        assert status == "optimal"
        assert np.allclose(v, [1.0, 0.0, 1.0], rtol=0.0, atol=1e-12)

    def test_bland_fallback_on_cycling_instance(self):
        # Chvatal's example (Linear Programming, 1983, ch. 3): from the
        # slack basis, Dantzig pricing cycles through six degenerate bases of
        # phase 2 and never reaches the optimum -1, whether the lowest basic
        # index or the largest pivot element breaks the ratio test's ties
        A, b, c = CHVATAL_CYCLING
        status, v, _, msg = simplex_solve(nonzeros(A), b, c, start=[4, 5, 6])
        assert status == "optimal"
        assert msg == "Bland's rule switched on in phase 2"
        assert np.abs(A @ v - b).max() <= 1e-12 and v.min() >= 0.0
        assert c @ v == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("eighths,seed", [
        *((False, s) for s in (22, 81, 121, 220, 314, 466, 502, 599)),
        *((True, s) for s in (176, 200, 228, 273, 435, 560, 575))])
    def test_degenerate_ties_take_the_largest_pivot(self, eighths, seed):
        # with the lowest basic index among tied rows, 10 of these solves
        # reach a singular basis at a refactorization and 3 run to the
        # iteration limit under Bland's rule; with the largest pivot among
        # exact ties only, seed 121 reaches a singular basis and eighths
        # seed 435 misses the residual gate (Harris's window mends both)
        assert split_grid_failure(seed, eighths) is None

    @pytest.mark.parametrize("eighths,seed,scale", [
        (False, 121, 1e-6), (True, 435, 1e-6), (True, 193, 1e-6),
        (False, 228, 1e6), (True, 131, 1e6)])
    def test_degenerate_ties_at_any_mass_scale(self, eighths, seed, scale):
        # every mass times 1e-6 or 1e6: MotLp divides the masses by mu's,
        # so the simplex sees the same LP. With Harris's window and the
        # residual gate absolute below unit mass, eighths seed 193 missed
        # the gate at 1e-6 (residual 4.8e-9); with the window absolute at
        # every scale, seed 228 missed it at 1e6 (residual 1.2e-3) and
        # eighths seed 131 reached a singular basis
        assert split_grid_failure(seed, eighths, scale) is None

    def test_unbounded_lp_raises(self):
        # v0 = v1 with v0 unbounded above: phase 2 finds no leaving row
        with pytest.raises(SolverFailureError, match="phase 2 ended with unbounded"):
            simplex_solve(nonzeros(np.array([[1.0, -1.0]])), np.array([0.0]),
                          np.array([-1.0, 0.0]))

    def test_refactorized_residuals_40x80(self):
        # rounding must not grow with the pivot count: B^-1 is recomputed
        # from the basic columns, so these residuals stay below 1e-15
        for seed in range(3):
            mu, nu = spread_pair_instance(np.random.default_rng([1234, 40, seed]), 40)
            sol = solve_lp(mu, nu, 1.0)
            assert sol.status == "optimal"
            assert sol.residuals["feasibility"] <= 2e-15


def _balanced_pairs():
    """Balanced pairs for the start: ties in first coordinate within and
    across the marginals, ties of cumulative mass, one-atom marginals and
    exact-zero coordinates, in d = 1, 2 and 3."""
    rng = np.random.default_rng(61)
    x3 = rng.uniform(-1.0, 1.0, (4, 3))
    x3[1, 0] = x3[0, 0]
    x3[2, 1] = 0.0
    y3 = np.concatenate([x3 - 0.5, x3 + 0.5])
    y3[3, 2] = 0.0
    return {
        "d1-ties": (DiscreteMeasure([-0.5, 0.5], [0.5, 0.5]),
                    DiscreteMeasure([-1.0, -0.5, 0.5, 1.0], [0.25] * 4)),
        "d1-spread": spread_pair_instance(np.random.default_rng(67), 6),
        "m1": (DiscreteMeasure([0.0], [1.0]),
               DiscreteMeasure([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])),
        "n1": (DiscreteMeasure([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25]),
               DiscreteMeasure([0.0], [1.0])),
        "m1n1": (DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([0.0], [1.0])),
        "d2-ties": (DiscreteMeasure([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                                    [0.25, 0.25, 0.5], dim=2),
                    DiscreteMeasure([[-1.0, 0.0], [0.0, 2.0], [0.0, -1.0], [2.0, 0.0]],
                                    [0.25, 0.25, 0.25, 0.25], dim=2)),
        "d3": (DiscreteMeasure(x3, np.full(4, 0.25), dim=3),
               DiscreteMeasure(y3, np.full(8, 0.125), dim=3)),
    }


class TestStart:
    @pytest.mark.parametrize("name", list(_balanced_pairs()))
    def test_start_basis_nonsingular_and_nonnegative(self, name):
        mu, nu = _balanced_pairs()[name]
        prob = MotLp(mu, nu, 1.0)
        m, n, d = len(mu), len(nu), mu.dim
        start = prob.start
        assert start is not None and len(start) == len(prob.b)
        cells = start[start < m * n]
        assert len(cells) == m + n - 1 and len(set(cells.tolist())) == m + n - 1
        # one transport artificial, then every barycenter row's
        assert start[m + n - 1] - m * n < m + n
        assert np.array_equal(start[m + n:] - m * n, np.arange(m + n, m + n + d * m))
        full = np.hstack([scipy_matrix(prob.A).toarray(), np.eye(len(prob.b))])
        x = np.linalg.solve(full[:, start], prob.b)
        assert np.linalg.cond(full[:, start]) < 1e8
        assert x[:m + n - 1].min() >= -1e-15           # the coupling cells
        assert abs(x[m + n - 1]) <= 1e-15              # balanced transport rows
        B = _Basis(prob.A, prob.b, start)
        assert B.x.min() >= 0.0
        assert np.abs(B.x - np.abs(x)).max() <= 1e-15

    def test_start_is_the_quantile_coupling_in_1d(self):
        mu, nu = _balanced_pairs()["d1-spread"]
        prob = MotLp(mu, nu, 1.0)
        m, n = len(mu), len(nu)
        B = _Basis(prob.A, prob.b, prob.start)
        v = np.zeros(m * n + len(prob.b))
        v[B.basis] = B.x
        quantile = np.zeros((m, n))
        i = j = 0
        left_mu, left_nu = mu.masses[0], nu.masses[0]
        while i < m and j < n:
            w = min(left_mu, left_nu)
            quantile[i, j] = w
            left_mu, left_nu = left_mu - w, left_nu - w
            if left_mu <= left_nu and i + 1 < m:
                i += 1
                left_mu = mu.masses[i]
            else:
                j += 1
                left_nu = nu.masses[j] if j < n else 0.0
        assert np.abs(v[:m * n].reshape(m, n) - quantile).max() <= 1e-15

    def test_unbalanced_totals_have_no_start(self):
        mu, nu = _balanced_pairs()["d1-spread"]
        heavy = DiscreteMeasure(nu.positions, nu.masses * 1.001)
        assert MotLp(mu, heavy, 1.0).start is None
        near = DiscreteMeasure(nu.positions, nu.masses + 1e-13)
        assert MotLp(mu, near, 1.0).start is not None

    @pytest.mark.parametrize("kind", ["min", "max", "swapped", "mismatched",
                                      "near-balanced"])
    def test_solve_lp_matches_highs(self, kind):
        for seed in range(3):
            mu, nu = spread_pair_instance(np.random.default_rng([71, seed]), 12)
            sense = "max" if kind == "max" else "min"
            if kind == "swapped":
                mu, nu = nu, mu
            elif kind == "mismatched":
                nu = DiscreteMeasure(nu.positions, nu.masses * 1.01)
            elif kind == "near-balanced":
                nu = DiscreteMeasure(nu.positions, nu.masses * (1.0 + 1e-12))
            prob = MotLp(mu, nu, 1.0, sense)
            ref = linprog(prob.objective_vector(), A_eq=scipy_matrix(prob.A), b_eq=prob.b,
                          bounds=(0, None), method="highs")
            sol = solve_lp(mu, nu, 1.0, sense)
            if kind in ("swapped", "mismatched"):
                assert sol.status == "infeasible" and ref.status == 2
            else:
                assert sol.status == "optimal" and ref.status == 0
                unit = prob.mass_unit * prob.cost_unit
                sign = -1.0 if sense == "max" else 1.0
                assert sol.objective == pytest.approx(sign * unit * ref.fun, abs=1e-8)

    def test_start_needs_fewer_pivots_40x80(self):
        for seed in range(2):
            mu, nu = spread_pair_instance(np.random.default_rng([73, seed]), 40)
            for src, tgt in ((mu, nu), (nu, mu)):
                prob = MotLp(src, tgt, 1.0)
                args = (prob.A, prob.b, prob.objective_vector())
                plain = simplex_solve(*args)
                started = simplex_solve(*args, prob.start)
                assert started[0] == plain[0]
                assert started[2] < plain[2]


class TestStayPut:
    def test_common_mass_on_diagonal(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            mu, nu = overlapping_instance(rng)
            p = float(rng.choice([0.5, 1.0]))
            sol = solve_lp(mu, nu, p)
            assert sol.status == "optimal"
            common, _, _ = common_mass_split(mu, nu)
            for pos, m_common in zip(common.positions, common.masses):
                i = int(np.argmin(np.abs(mu.positions - pos)))
                j = int(np.argmin(np.abs(nu.positions - pos)))
                assert sol.matrix[i, j] >= m_common - 1e-9
            assert diagonal_mass(sol) >= common.total_mass() - 1e-9

    def test_disjoint_marginals_zero_diagonal(self):
        rng = np.random.default_rng(67)
        mu, nu = separated_instance(rng)
        sol = solve_lp(mu, nu, 1.0)
        assert diagonal_mass(sol) == 0.0

    def test_diagonal_is_the_atom_rule_in_2d(self):
        # an entry whose ends differ by 1e-12 in each coordinate is one atom
        # under the merge rule (max-abs distance), though 1.41e-12 apart
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0], dim=2)
        nu = DiscreteMeasure([[1e-12, 1e-12]], [1.0], dim=2)
        sol = solve_lp(mu, nu, 1.0)
        assert sol.status == "optimal" and len(sol.coupling) == 1
        assert diagonal_mass(sol) == 1.0

    def test_identical_marginals_full_diagonal(self):
        mu = DiscreteMeasure([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
        sol = solve_lp(mu, mu, 1.0)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert diagonal_mass(sol) == pytest.approx(1.0, abs=1e-9)


class TestUniquenessProbe:
    @pytest.mark.parametrize("seed", [71, 72, 73])
    @pytest.mark.parametrize("p", [0.3, 0.6, 1.0])
    def test_separated_instance_unique(self, p, seed):
        rng = np.random.default_rng(seed)
        mu, nu = separated_instance(rng, kmax=6)
        assert uniqueness_probe(mu, nu, p)

    def test_singleton_feasible_set(self):
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
        assert uniqueness_probe(mu, nu, 1.0)

    @pytest.mark.parametrize("n_fold", [6, 8, 12])
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_ring_instance_unique(self, p, n_fold):
        # d = 2, radially symmetric: each atom splits along its own ray
        mu, nu = ring_instance(n_fold)
        assert uniqueness_probe(mu, nu, p)

    def test_every_solve_passes_feasibility_gate(self, monkeypatch):
        gate = motkit.lp._gated_residual
        residuals = []

        def checked(prob, v, solve):
            resid = gate(prob, v, solve)
            residuals.append(resid)
            return resid

        monkeypatch.setattr(motkit.lp, "_gated_residual", checked)
        mu, nu = spread_pair_instance(np.random.default_rng([777, 19]), 20)
        assert uniqueness_probe(mu, nu, 1.0)
        assert len(residuals) == 2      # the base and the face optimum
        assert max(residuals) <= RESIDUAL_TOL

    def test_segment_of_optimizers_not_unique(self):
        mu = DiscreteMeasure([-2.0, 0.0], [0.5, 0.5])
        nu = DiscreteMeasure([-5.0, -1.0, 1.0, 3.0], [0.25, 0.375, 0.25, 0.125])
        sol = solve_lp(mu, nu, 1.0)
        base = np.array([[0.125, 0.375, 0.0, 0.0], [0.125, 0.0, 0.25, 0.125]])
        # moving t * (1, -2, 0, 1) from row x = 0 to row x = -2 keeps both
        # marginals and both barycenters, and changes the cost by
        # t * ((3^p - 5^p) + (5^p - 3^p)) = 0, for 0 <= t <= 0.125; the
        # simplex returns a vertex, one of the segment's two endpoints
        delta = np.array([[1.0, -2.0, 0.0, 1.0], [-1.0, 2.0, 0.0, -1.0]])
        assert min(np.abs(sol.matrix - (base + t * delta)).max()
                   for t in (0.0, 0.125)) <= 1e-12
        for t in (0.05, 0.125):
            other = base + t * delta
            assert other.min() >= 0.0
            ii, jj = np.nonzero(other)
            pi = Coupling(mu.positions[ii], nu.positions[jj], other[ii, jj])
            assert max(validate_coupling(pi, mu, nu).to_dict().values()) <= 1e-12
            assert cost(pi, 1.0) == pytest.approx(sol.objective, abs=1e-12)
        assert not uniqueness_probe(mu, nu, 1.0)


class TestAssembly:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_nonzeros_match_dense_constraints(self, dim):
        # the row-sum, column-sum and barycenter rows written out densely in
        # the LP's units: masses over mu's (exactly 1 here) and positions
        # about mu's mean c (exactly (0.25, 0) here) over s, the largest
        # coordinate distance from c or 1. Column i*n + j stores rows i,
        # m + j and m + n + d*i + k in its 2 + d slots, so a nu atom at c's
        # first coordinate keeps its slot with an explicit 0
        rng = np.random.default_rng(5)
        x = np.array([[-0.75, 0.5], [0.25, -0.25], [0.5, 0.0], [1.0, -0.25]])[:, :dim]
        y = rng.uniform(-2.0, 2.0, (4, dim))
        y[0, 0] = 0.25
        mu = DiscreteMeasure(x.squeeze(1) if dim == 1 else x, np.full(4, 0.25), dim=dim)
        nu = DiscreteMeasure(y.squeeze(1) if dim == 1 else y, np.full(4, 0.25), dim=dim)
        prob = MotLp(mu, nu, 1.0)
        xs, ys = mu.positions.reshape(4, dim), nu.positions.reshape(4, dim)
        c = np.array([0.25, 0.0])[:dim]
        s = max(1.0, np.abs(xs - c).max(), np.abs(ys - c).max())
        dense = np.zeros((4 + 4 + 4 * dim, 16))
        b = np.full(len(dense), 0.25)
        for i in range(4):
            for j in range(4):
                dense[[i, 4 + j], 4 * i + j] = 1.0
                dense[8 + dim * i:8 + dim * (i + 1), 4 * i + j] = (ys[j] - c) / s
            b[8 + dim * i:8 + dim * (i + 1)] = (xs[i] - c) / s * 0.25
        A = prob.A
        ii, jj = np.divmod(np.arange(16), 4)
        assert prob.mass_unit == 1.0
        assert A.shape == dense.shape
        assert A.row.shape == A.val.shape == (2 + dim, 16)
        assert np.array_equal(A.row, np.vstack([ii, 4 + jj, 8 + dim * ii
                                                + np.arange(dim)[:, None]]))
        densified = np.zeros(A.shape)
        np.add.at(densified, (A.row, np.arange(16)), A.val)
        assert np.array_equal(densified, dense)
        zero = ys[jj, 0] == 0.25
        assert zero.sum() == 4 and np.all(A.val[2, zero] == 0.0)
        assert np.array_equal(prob.b, b)

    def test_basis_operations_match_dense_columns(self):
        # d = 2 with a nu atom at a zero coordinate. The start's cells form
        # a spanning tree of the transport rows, so row 0's artificial can
        # complete it; its padding slots point at row 0 too, so a slot
        # assigned (not accumulated) into B would zero its sign
        mu = DiscreteMeasure([[-1.0, 0.0], [1.0, 0.5]], [0.5, 0.5], dim=2)
        nu = DiscreteMeasure([[-2.0, 0.0], [0.0, 1.0], [2.0, -1.0]],
                             [0.25, 0.2, 0.55], dim=2)
        prob = MotLp(mu, nu, 1.0)
        m, n = 2, 3
        start = prob.start.copy()
        start[m + n - 1] = m * n
        B = _Basis(prob.A, prob.b, start)
        sign = B.val[0, m * n:]
        assert np.array_equal(np.abs(sign), np.ones(len(prob.b)))
        full = np.hstack([scipy_matrix(prob.A).toarray(), np.diag(sign)])
        y = np.random.default_rng(3).normal(size=len(prob.b))
        self._assert_matches(B, full, y)
        # deleting row 0 with the position of its artificial keeps B^-1 exact
        B.drop([m + n - 1])
        B.refactorize()
        self._assert_matches(B, full[1:], y[1:])

    @staticmethod
    def _assert_matches(B, full, y):
        """B's basis matrix, pricing and entering columns against the
        dense [A S] `full`."""
        assert np.abs(B.inv @ full[:, B.basis] - np.eye(len(full))).max() <= 1e-15
        assert np.abs(B.price(y) - y @ full).max() <= 1e-15
        for q in range(full.shape[1]):
            assert np.abs(B.column(q) - B.inv @ full[:, q]).max() <= 1e-15


def mirror_pair(m, n):
    """A balanced pair of m and n atoms, each its own mirror image: an odd
    count puts an atom at 0. Not in convex order; the assembly needs none."""
    # integer offsets are exactly mirror-symmetric, unlike linspace
    x = (2.0 * np.arange(m) - (m - 1)) / max(m - 1, 1)
    y = (2.0 * np.arange(n) - (n - 1)) * 3.0 / max(n - 1, 1)
    w = 1.0 + np.abs(x)
    v = 2.0 - np.abs(y) / 3.0
    return DiscreteMeasure(x, w / w.sum()), DiscreteMeasure(y, v / v.sum())


def _ulp_off(meas: DiscreteMeasure, moved: str) -> DiscreteMeasure:
    """meas with the position or the mass of its last atom one ulp larger."""
    pos, w = meas.positions.copy(), meas.masses.copy()
    target = pos if moved == "position" else w
    target[-1] = np.nextafter(target[-1], np.inf)
    return DiscreteMeasure(pos, w)


class TestReflectionQuotient:
    """solve_lp(mirror=True) solves over the couplings with
    pi(x, y) = pi(-x, -y) of a pair that is its own mirror image."""

    SIZES = [(4, 6), (5, 6), (4, 7), (5, 7), (1, 3)]

    @pytest.mark.parametrize("m, n", SIZES)
    def test_rows_are_the_full_rows_of_the_unfolded_matrix(self, m, n):
        # each quotient row is a full row at x >= 0, y >= 0 or x > 0 of the
        # symmetric matrix that the quotient's columns unfold to, in units
        # of mu's mass and L with centre 0
        mu, nu = mirror_pair(m, n)
        prob = MotLp(mu, nu, 1.0, mirror=True)
        A, b, start = prob.quotient
        assert prob.start is None and len(start) == len(b)
        hm, hn = m // 2, n // 2
        assert A.shape == (m - hm + n - hn + hm, m * n - m * n // 2)
        vq = np.random.default_rng(m * n).uniform(0.1, 1.0, A.shape[1])
        V = np.concatenate([vq[::-1][:m * n // 2], vq]).reshape(m, n)
        assert np.array_equal(V, V[::-1, ::-1])
        L = max(1.0, np.abs(nu.positions).max())
        rows = np.concatenate([V.sum(1)[hm:], V.sum(0)[hn:],
                               (V @ nu.positions)[m - hm:] / L])
        dense = np.zeros(A.shape)
        np.add.at(dense, (A.row, np.arange(A.shape[1])), A.val)
        assert np.abs(dense @ vq - rows).max() <= 1e-14
        assert np.allclose(b, np.concatenate([mu.masses[hm:], nu.masses[hn:],
                                              (mu.positions * mu.masses)[m - hm:] / L]),
                           rtol=0, atol=1e-16)

    @pytest.mark.parametrize("m, n", SIZES)
    def test_start_is_a_nonnegative_basis(self, m, n):
        # as MotLp.start: a spanning tree of the transport rows, one
        # transport artificial, then every barycenter row's
        mu, nu = mirror_pair(m, n)
        A, b, start = MotLp(mu, nu, 1.0, mirror=True).quotient
        tree = (m - m // 2) + (n - n // 2) - 1
        cells = start[:tree]
        assert cells.max() < A.shape[1] and len(set(cells.tolist())) == tree
        assert np.array_equal(start[tree + 1:] - A.shape[1], np.arange(tree + 1, len(b)))
        full = np.hstack([scipy_matrix(A).toarray(), np.eye(len(b))])
        assert np.linalg.cond(full[:, start]) < 1e8
        x = np.linalg.solve(full[:, start], b)
        assert x[:tree].min() >= -1e-15        # the coupling cells
        assert abs(x[tree]) <= 1e-15           # balanced transport rows
        assert _Basis(A, b, start).x.min() >= 0.0

    @pytest.mark.parametrize("case", ["mu-at-0", "nu-at-0", "both-at-0"])
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_atom_at_zero_matches_the_full_lp(self, case, p):
        if case == "nu-at-0":
            mu, nu = induced_remainder(*overlap_profiles(2, 0.35), 91)
        else:
            mu, nu = induced_remainder(*hole_profiles(2, 0.02, 0.3), 91)
        if case == "both-at-0":   # the cell (0, 0) stands for itself
            mu, nu = (DiscreteMeasure(np.append(m.positions, 0.0), np.append(m.masses, 0.01))
                      for m in (mu, nu))
        assert (0.0 in mu.positions, 0.0 in nu.positions) == {
            "mu-at-0": (True, False), "nu-at-0": (False, True),
            "both-at-0": (True, True)}[case]
        quotient, full = solve_lp(mu, nu, p, mirror=True), solve_lp(mu, nu, p)
        assert reflection_residual_of(quotient.matrix) == 0.0
        assert_same_coupling(quotient.coupling, symmetrize_coupling(full.coupling), p)
        assert quotient.objective == pytest.approx(full.objective, rel=1e-12)

    @pytest.mark.parametrize("side", ["mu", "nu"])
    @pytest.mark.parametrize("moved", ["position", "mass"])
    def test_one_ulp_off_mirror_raises(self, side, moved):
        mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([-2.0, -0.5, 0.5, 2.0], [0.25] * 4)
        assert solve(mu, nu, 1.0, mirror=True).route == "lp"
        pair = {"mu": mu, "nu": nu}
        pair[side] = _ulp_off(pair[side], moved)
        with pytest.raises(SolverFailureError, match="mirror image"):
            solve(pair["mu"], pair["nu"], 1.0, mirror=True)

    def test_size_gate_counts_the_full_lp(self):
        m = MAX_VARIABLES // 500 + 2
        mu, nu = mirror_pair(m, 500)
        with pytest.raises(InputError, match="instance too large"):
            MotLp(mu, nu, 1.0, mirror=True)


def reflection_residual_of(mat: np.ndarray) -> float:
    """Largest gap between a coupling matrix and its mirror image."""
    return float(np.abs(mat - mat[::-1, ::-1]).max())


class TestInputContracts:
    def test_dim_mismatch_rejected(self):
        from motkit import InputError
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([[1.0, 0.0]], [1.0], dim=2)
        with pytest.raises(InputError):
            MotLp(mu, nu, 1.0)

    def test_empty_marginal_rejected(self):
        from motkit import InputError
        with pytest.raises(InputError):
            MotLp(DiscreteMeasure.empty(), DiscreteMeasure([0.0], [1.0]), 1.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf")])
    def test_exponent_outside_positive_finite_rejected(self, p):
        from motkit import InputError
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
        with pytest.raises(InputError, match="positive and finite"):
            solve_lp(mu, nu, p)
        assert solve_lp(mu, nu, 2.0).objective == pytest.approx(4.0, abs=1e-12)

    def test_probe_requires_feasible_base(self):
        mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([0.0], [1.0])
        with pytest.raises(SolverFailureError):
            uniqueness_probe(mu, nu, 1.0)


class TestPlanarInstances:
    def test_ring_instance_stays_on_rays(self):
        mu, nu = ring_instance()
        sol = solve_lp(mu, nu, 1.0)
        assert sol.status == "optimal"
        # optimal value: each atom splits along its ray to radii 0.5 and 2
        assert sol.objective == pytest.approx(2.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_two_shells_on_16_rays(self, p):
        # the ratio test once pivoted on rounding noise here, so B^-1 grew
        # to cond 3.9e12 and its refactorization found B singular
        mu_shells = RadialAtoms(2, [1.0, 1.5], [0.5, 0.5])
        nu_shells = RadialAtoms(2, [0.5, 3.0], [0.7, 0.3])
        rays = ring_directions(16)
        sol = solve_lp(shell_atoms(rays, mu_shells), shell_atoms(rays, nu_shells), p)
        assert sol.status == "optimal"
        _, radial_cost = solve_radial(mu_shells, nu_shells, p)
        assert sol.objective == pytest.approx(radial_cost, rel=1e-12, abs=0.0)

    def test_rotation_invariance_quick(self):
        mu, nu = ring_instance()
        base = solve_lp(mu, nu, 1.0).objective
        M = rotation_2d(0.3)
        mur = DiscreteMeasure(mu.positions @ M.T, mu.masses, dim=2)
        nur = DiscreteMeasure(nu.positions @ M.T, nu.masses, dim=2)
        assert solve_lp(mur, nur, 1.0).objective == pytest.approx(base, abs=1e-9)


def phase_log(monkeypatch, module, name) -> list:
    """Wrap the phase runner `module.name` so that every phase it runs is
    logged: its name and cost, its iterations, whether Bland's rule switched
    on, and the basis, basic values and B^-1 it ends on."""
    log, run = [], getattr(module, name)

    def logged(B, cost, phase):
        it, bland = run(B, cost, phase)
        log.append((phase, cost, it, bland, B.basis.copy(), B.x.copy(), B.inv.copy()))
        return it, bland

    monkeypatch.setattr(module, name, logged)
    return log


def bits(a: np.ndarray) -> np.ndarray:
    """a's bit patterns with -0.0 read as +0.0."""
    return (np.asarray(a, dtype=float) + 0.0).view(np.uint64)


class TestPivotOracle:
    """The simplex takes the pivots of `lemmas.oracle_simplex`, the loop
    that the leaner pivot replaced: phase by phase the same iterations and
    Bland's flag, the same final basis, and basic values and B^-1 equal bit
    for bit up to the sign of exact zeros (B^-1's rank-1 step gives +0.0
    where np.outer gave -0.0)."""

    @pytest.fixture
    def logs(self, monkeypatch):
        return (phase_log(monkeypatch, motkit.lp, "_run_phase"),
                phase_log(monkeypatch, lemmas, "oracle_run_phase"))

    @staticmethod
    def assert_same_phases(log, ref):
        assert [e[0] for e in log] == [e[0] for e in ref]
        for (_, _, it, bland, basis, x, inv), (_, _, rit, rbland, rbasis, rx, rinv) in zip(log, ref):
            assert (it, bland) == (rit, rbland)
            assert np.array_equal(basis, rbasis)
            assert np.array_equal(bits(x), bits(rx))
            assert np.array_equal(bits(inv), bits(rinv))

    def solve_both(self, logs, A, b, c, start=None, feas_tol=FEAS_TOL):
        """Solve with both loops; the results and every phase must agree.
        Returns (status, iterations, message)."""
        status, v, iters, msg, _ = _revised_simplex(A, b, c, start, feas_tol)
        ref = oracle_simplex(A, b, c, start, feas_tol)
        assert (status, iters, msg) == (ref[0], ref[2], ref[3])
        if status == "optimal":
            assert np.array_equal(bits(v), bits(ref[1]))
        self.assert_same_phases(*logs)
        return status, iters, msg

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", ["min", "max", "swap"])
    def test_lp_oracle_pairs(self, logs, case, seed):
        # perfbench's lp_measures pairs at the lp-oracle size, 26x52: both
        # senses and the role-swapped pair, which phase 1 finds infeasible
        mu, nu = spread_pair_instance(np.random.default_rng([30, seed]), 26)
        prob = MotLp(nu, mu, 1.0) if case == "swap" else MotLp(mu, nu, 1.0, case)
        status, iters, _ = self.solve_both(logs, prob.A, prob.b, prob.objective_vector(),
                                           prob.start)
        assert status == ("infeasible" if case == "swap" else "optimal")
        assert len(logs[0]) == (1 if case == "swap" else 2) and iters > 0

    def test_bland_rule_on_the_cycling_instance(self, logs):
        # Chvatal's example of TestRevisedSimplex: Dantzig pricing stalls in
        # phase 2, and Bland's rule finishes it (no split-grid pair of seeds
        # 0-599 switches it on)
        A, b, c = CHVATAL_CYCLING
        _, _, msg = self.solve_both(logs, nonzeros(A), b, c, start=[4, 5, 6])
        assert msg == "Bland's rule switched on in phase 2"

    @pytest.mark.parametrize("eighths,seed,scale", [
        (False, 22, 1.0), (False, 121, 1.0), (True, 435, 1.0),
        (True, 193, 1e-6), (False, 228, 1e6)])
    def test_split_grid_ties(self, logs, eighths, seed, scale):
        # d = 3 pairs whose ratio tests tie often (TestRevisedSimplex's
        # degenerate cases), in the max sense of tools/degenerate_family.py
        mu, nu = split_grid_instance(seed, eighths)
        mu, nu = (DiscreteMeasure(m.positions, scale * m.masses, dim=3) for m in (mu, nu))
        prob = MotLp(mu, nu, 1.0, "max")
        assert self.solve_both(logs, prob.A, prob.b, prob.objective_vector(),
                               prob.start)[0] == "optimal"

    @pytest.mark.parametrize("profiles", ["nu-at-0", "mu-at-0"])
    def test_reflection_quotient_with_an_atom_at_0(self, logs, profiles):
        pair = (overlap_profiles(2, 0.35) if profiles == "nu-at-0"
                else hole_profiles(2, 0.02, 0.3))
        mu, nu = induced_remainder(*pair, 91)
        assert 0.0 in (mu if profiles == "mu-at-0" else nu).positions
        prob = MotLp(mu, nu, 1.0, mirror=True)
        A, b, start = prob.quotient
        c = prob.objective_vector()[-A.shape[1]:]
        assert self.solve_both(logs, A, b, c, start,
                               FEAS_TOL * prob.tol_unit)[0] == "optimal"

    @pytest.mark.parametrize("case", ["20x40", "segment"])
    def test_probe_face_solve(self, logs, case):
        # the face solve prices the columns off the optimal face at +inf
        if case == "20x40":
            mu, nu = spread_pair_instance(np.random.default_rng([777, 19]), 20)
        else:   # TestUniquenessProbe's segment of optimizers
            mu = DiscreteMeasure([-2.0, 0.0], [0.5, 0.5])
            nu = DiscreteMeasure([-5.0, -1.0, 1.0, 3.0], [0.25, 0.375, 0.25, 0.125])
        unique = uniqueness_probe(mu, nu, 1.0)
        assert unique == oracle_uniqueness_probe(mu, nu, 1.0) == (case == "20x40")
        self.assert_same_phases(*logs)
        phase, face_cost = logs[0][-1][:2]
        assert phase == "face solve" and np.isinf(face_cost).any()


class TestRankOneKernel:
    def test_einsum_products_are_np_outer_s(self):
        # _Basis.pivot forms B^-1's rank-1 step with np.einsum("i,j->ij"),
        # which must give np.outer's products: equal as floats everywhere,
        # and bit for bit except at a zero product, which comes out +0.0
        tiny = np.nextafter(0.0, 1.0)
        special = np.array([0.0, -0.0, tiny, -tiny, 3e-310, -2.5e-308, 1e-300, -3e-300,
                            7e-160, 1e300, -4e300, 1.5e154, -1.0, 0.5, 3.0])
        rng = np.random.default_rng(30)
        u = np.concatenate([special, rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)])
        w = np.concatenate([special[::-1], rng.normal(size=33)])
        for a, b in ((u, w), (w, u)):
            with np.errstate(over="ignore", under="ignore"):
                ein, out = np.einsum("i,j->ij", a, b), np.outer(a, b)
            assert np.array_equal(ein, out)
            zero = out == 0.0
            assert np.signbit(out[zero]).any() and not np.signbit(ein[zero]).any()
            assert np.array_equal(ein.view(np.uint64)[~zero], out.view(np.uint64)[~zero])
            assert np.isinf(out).any() and (np.abs(out[out != 0.0]) < 2.3e-308).any()
