import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

import motkit.lp
from motkit import (Coupling, DiscreteMeasure, MotLp, RadialAtoms,
                    common_mass_split, cost, detect_separation, diagonal_mass,
                    solve_lp, solve_radial, uniqueness_probe,
                    validate_coupling)
from motkit.lp import RESIDUAL_RTOL, Nonzeros, simplex_solve
from motkit.mot1d import solve_sweep
from instances import (overlapping_instance, ring_directions, ring_instance,
                       rotation_2d, separated_instance, shell_atoms,
                       spread_pair_instance)


def scipy_matrix(A: Nonzeros):
    """The constraint matrix held as nonzeros, as a scipy sparse matrix."""
    return coo_matrix((A.val, (A.row, A.col)), shape=A.shape).tocsr()


def nonzeros(dense: np.ndarray) -> Nonzeros:
    """The sparse form of a small dense constraint matrix."""
    col, row = np.nonzero(dense.T)
    return Nonzeros(row, col, dense[row, col], dense.shape)


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
            assert sol.objective == pytest.approx(ref.fun, abs=1e-8)

    def test_objective_matches_highs_40x80(self):
        for seed in range(2):
            mu, nu = spread_pair_instance(np.random.default_rng([41, seed]), 40)
            prob = MotLp(mu, nu, 1.0)
            ref = linprog(prob.C.ravel(), A_eq=scipy_matrix(prob.A), b_eq=prob.b,
                          bounds=(0, None), method="highs")
            sol = solve_lp(mu, nu, 1.0)
            assert sol.status == "optimal" and ref.status == 0
            assert sol.objective == pytest.approx(ref.fun, abs=1e-8)

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
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-8)


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
        status, v, _, _ = simplex_solve(nonzeros(A), b, np.array([1.0, 3.0, 1.0]),
                                        1e-8)
        assert status == "optimal"
        assert np.allclose(v, [1.0, 0.0, 1.0], rtol=0.0, atol=1e-12)

    def test_bland_fallback_on_cycling_instance(self):
        # Chvatal's example (Linear Programming, 1983, ch. 3): Dantzig
        # pricing with the lowest-index leaving rule cycles through six
        # degenerate bases of phase 2 and never reaches the optimum -1
        A = np.array([[0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
                      [0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0])
        status, v, _, msg = simplex_solve(nonzeros(A), b, c, 1e-8)
        assert status == "optimal"
        assert msg == "Bland's rule switched on in phase 2"
        assert np.abs(A @ v - b).max() <= 1e-12 and v.min() >= 0.0
        assert c @ v == pytest.approx(-1.0, abs=1e-12)

    def test_refactorized_residuals_40x80(self):
        # rounding must not grow with the pivot count: B^-1 is recomputed
        # from the basic columns, so these residuals stay below 1e-15
        for seed in range(3):
            mu, nu = spread_pair_instance(np.random.default_rng([1234, 40, seed]), 40)
            sol = solve_lp(mu, nu, 1.0)
            assert sol.status == "optimal"
            assert sol.residuals["feasibility"] <= 2e-15


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
        solve = motkit.lp.simplex_solve
        scaled_residuals = []

        def checked(A, b, c, feas_tol):
            status, v, iters, msg = solve(A, b, c, feas_tol)
            assert status == "optimal"
            scaled_residuals.append(float(np.abs(scipy_matrix(A) @ v - b).max())
                                    / max(1.0, float(np.abs(b).max())))
            return status, v, iters, msg

        monkeypatch.setattr(motkit.lp, "simplex_solve", checked)
        mu, nu = spread_pair_instance(np.random.default_rng([777, 19]), 20)
        assert uniqueness_probe(mu, nu, 1.0)
        assert len(scaled_residuals) == 1      # the face LP
        assert max(scaled_residuals) <= RESIDUAL_RTOL

    def test_segment_of_optimizers_not_unique(self):
        mu = DiscreteMeasure([-2.0, 0.0], [0.5, 0.5])
        nu = DiscreteMeasure([-5.0, -1.0, 1.0, 3.0], [0.25, 0.375, 0.25, 0.125])
        sol = solve_lp(mu, nu, 1.0)
        base = np.array([[0.125, 0.375, 0.0, 0.0], [0.125, 0.0, 0.25, 0.125]])
        assert np.abs(sol.matrix - base).max() <= 1e-12
        # moving t * (1, -2, 0, 1) from row x = 0 to row x = -2 keeps both
        # marginals and both barycenters, and changes the cost by
        # t * ((3^p - 5^p) + (5^p - 3^p)) = 0, for 0 <= t <= 0.125
        delta = np.array([[1.0, -2.0, 0.0, 1.0], [-1.0, 2.0, 0.0, -1.0]])
        for t in (0.05, 0.125):
            other = base + t * delta
            assert other.min() >= 0.0
            ii, jj = np.nonzero(other)
            pi = Coupling(mu.positions[ii], nu.positions[jj], other[ii, jj])
            assert validate_coupling(pi, mu, nu).max_residual() <= 1e-12
            assert cost(pi, 1.0) == pytest.approx(sol.objective, abs=1e-12)
        assert not uniqueness_probe(mu, nu, 1.0)


class TestAssembly:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_nonzeros_match_dense_constraints(self, dim):
        # the row-sum, column-sum and barycenter rows written out densely:
        # the stored nonzeros are exactly its nonzeros, sorted by column and
        # then by row, so a nu atom at a zero coordinate stores nothing there
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (3, dim))
        y = rng.uniform(-2.0, 2.0, (4, dim))
        y[0, 0] = 0.0
        mu = DiscreteMeasure(x.squeeze(1) if dim == 1 else x, np.full(3, 1 / 3), dim=dim)
        nu = DiscreteMeasure(y.squeeze(1) if dim == 1 else y, np.full(4, 1 / 4), dim=dim)
        prob = MotLp(mu, nu, 1.0)
        xs, ys = mu.positions.reshape(3, dim), nu.positions.reshape(4, dim)
        dense = np.zeros((3 + 4 + 3 * dim, 12))
        b = np.zeros(len(dense))
        for i in range(3):
            for j in range(4):
                dense[[i, 3 + j], 4 * i + j] = 1.0
                dense[7 + dim * i:7 + dim * (i + 1), 4 * i + j] = ys[j]
            b[i] = mu.masses[i]
            b[7 + dim * i:7 + dim * (i + 1)] = xs[i] * mu.masses[i]
        b[3:7] = nu.masses
        col, row = np.nonzero(dense.T)
        A = prob.A
        assert A.shape == dense.shape
        assert np.array_equal(A.row, row) and np.array_equal(A.col, col)
        assert np.array_equal(A.val, dense[row, col])
        assert np.array_equal(prob.b, b)


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

    def test_probe_requires_feasible_base(self):
        from motkit import SolverFailureError
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
