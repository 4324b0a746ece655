import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from motkit import (DiscreteMeasure, InputError, RadialAtoms, RadialProfile,
                    cost, induce_1d, induced_atoms, l_symmetrize_2d, quantize,
                    r_equivalent, reflection_residual, rotate_pushforward,
                    sample_lifted, solve_lp, solve_radial, symmetrize_coupling,
                    unit_sphere_area, validate_coupling)
from motkit.mot1d import Coupling
from motkit.radial import load_radial_pair
from instances import ring_instance, rotation_2d


def disk_profile(radius=1.0, cells=50):
    density = 1.0 / (np.pi * radius ** 2)
    return RadialProfile(2, np.linspace(0.0, radius, cells + 1),
                         np.full(cells, density))


def ball_profile(radius=1.0, cells=40):
    density = 3.0 / (4.0 * np.pi * radius ** 3)
    return RadialProfile(3, np.linspace(0.0, radius, cells + 1),
                         np.full(cells, density))


class TestSymmetrizeCoupling:
    def test_asymmetric_coupling_averaged_with_its_mirror(self):
        pi = Coupling.from_entries([(1.0, 2.0, 0.5), (-1.0, -2.0, 0.25), (0.0, 0.0, 0.1),
                                    (-1.0, 1.0, 0.125), (0.5, 1.5, 0.3)])
        out = symmetrize_coupling(pi)
        assert reflection_residual(out) == 0.0
        assert out.total_mass() == pytest.approx(pi.total_mass(), rel=1e-15)
        assert np.array_equal(np.lexsort((out.ys, out.xs)), np.arange(len(out)))
        mass = {(x, y): w for x, y, w in pi.entries()}
        assert len(out) == 7
        for x, y, w in out.entries():
            assert w == 0.5 * (mass.get((x, y), 0.0) + mass.get((-x, -y), 0.0))

    def test_symmetric_sorted_coupling_unchanged(self):
        pi = Coupling.from_entries([(-1.0, -2.0, 0.3), (-1.0, 1.0, 0.1), (0.0, -1.0, 0.2),
                                    (0.0, 0.0, 0.7), (0.0, 1.0, 0.2), (1.0, -1.0, 0.1),
                                    (1.0, 2.0, 0.3)])
        out = symmetrize_coupling(pi)
        for name in ("xs", "ys", "masses"):
            assert np.array_equal(getattr(out, name), getattr(pi, name))
            assert getattr(out, name).tobytes() == getattr(pi, name).tobytes()


class TestInduce:
    def test_disk_induces_triangular(self):
        g = induce_1d(disk_profile())
        assert abs(g.total_mass() - 1.0) <= 1e-10
        assert np.abs(g.values - np.abs(g.midpoints())).max() <= 1e-12

    def test_ball_induces_squared(self):
        g = induce_1d(ball_profile())
        assert abs(g.total_mass() - 1.0) <= 1e-10
        edges = np.linspace(-1.0, 1.0, g.n + 1)

        def cell_average(lo, hi):
            anti = lambda s: abs(s) ** 3 / 2.0  # antiderivative of 1.5 r^2
            if lo < 0 < hi:
                return (anti(lo) + anti(hi)) / (hi - lo)
            return abs(anti(hi) - anti(lo)) / (hi - lo)

        expect = np.array([cell_average(l, u) for l, u in zip(edges[:-1], edges[1:])])
        assert np.abs(g.values - expect).max() <= 1e-10

    def test_even_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            cells = int(rng.integers(3, 30))
            prof = RadialProfile(2, np.linspace(0, rng.uniform(0.5, 3), cells + 1),
                                 rng.uniform(0, 1, cells))
            g = induce_1d(prof, n=2 * cells)
            assert np.array_equal(g.values, g.values[::-1])

    def test_radial_cdf_matches_dense_formula(self):
        rng = np.random.default_rng(17)
        for cells in (1, 3, 40, 500, 2000):
            for d in (2, 3, 5):
                r = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, cells))))
                f = rng.uniform(0.0, 2.0, cells) * (rng.random(cells) > 0.2)
                f[0] = 1.0
                prof = RadialProfile(d, r, f)
                s = np.concatenate([rng.uniform(-0.5, 1.2 * r[-1], 400), r])
                # dense oracle: every point against every cell
                reach = np.clip(s[:, None], r[None, :-1], r[None, 1:])
                shells = (reach ** d - r[None, :-1] ** d) / d
                expect = unit_sphere_area(d) * shells @ f
                got = prof.radial_cdf(s)
                assert np.all(got[expect == 0] == 0)
                pos = expect > 0
                assert np.abs(got[pos] - expect[pos]).max() <= 1e-14 * expect[pos].max()
                assert (np.abs(got[pos] - expect[pos]) <= 1e-14 * expect[pos]).all()

    def test_induce_memory_linear(self):
        prof = RadialProfile(3, np.linspace(0.0, 1.0, 4001), np.ones(4000))
        tracemalloc.start()
        try:
            induce_1d(prof)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 8000 target cells: a dense (points x cells) matrix would take 256 MB
        assert peak < 4e6

    def test_sphere_area_constants(self):
        assert unit_sphere_area(2) == pytest.approx(2 * np.pi)
        assert unit_sphere_area(3) == pytest.approx(4 * np.pi)

    def test_nonuniform_grid_needs_explicit_n(self):
        prof = RadialProfile(2, [0.0, 0.5, 2.0], [0.1, 0.2])
        with pytest.raises(InputError):
            induce_1d(prof)
        g = induce_1d(prof, n=64)
        area = np.pi * (0.25 * 0.1 + (4 - 0.25) * 0.2)
        assert abs(g.total_mass() - area) <= 1e-12

    def test_shell_atoms_induce_symmetric_pairs(self):
        ra = RadialAtoms(2, [2.0, 1.0], [0.4, 0.6])
        ind = induced_atoms(ra)
        assert np.allclose(ind.positions, [-2.0, -1.0, 1.0, 2.0])
        assert np.allclose(ind.masses, [0.2, 0.3, 0.3, 0.2])

    def test_origin_shell_rejected(self):
        with pytest.raises(InputError):
            RadialAtoms(2, [0.0], [1.0])
        # nan passes a test of r <= 0 or w <= 0, and an infinite mass made
        # an infinite total_mass
        with pytest.raises(InputError, match="radii must be finite"):
            RadialAtoms(2, [float("nan")], [1.0])
        with pytest.raises(InputError, match="masses must be finite"):
            RadialAtoms(2, [1.0], [float("inf")])
        with pytest.raises(InputError, match="total mass must be finite"):
            RadialAtoms(2, [1.0, 2.0], [1e308, 1e308])


class TestSolveRadial:
    def test_disk_to_sphere(self):
        lifted, c1 = solve_radial(disk_profile(), RadialAtoms(2, [2.0], [1.0]),
                                  1.0, n=400)
        cd = lifted.cost_ddim(1.0)
        assert abs(cd - c1) <= 1e-9
        assert reflection_residual(lifted.base) <= 1e-10
        assert lifted.maps is not None  # separated: sweep path
        # quantization error vanishes as n grows; continuous value is 1.75
        assert c1 == pytest.approx(1.75, abs=1e-4)

    def test_annulus_target_separated(self):
        annulus = RadialProfile(2, [0.0, 1.5, 2.5],
                                [0.0, 1.0 / (np.pi * (2.5 ** 2 - 1.5 ** 2))])
        lifted, c1 = solve_radial(disk_profile(), annulus, 0.5, n=200)
        assert abs(lifted.cost_ddim(0.5) - c1) <= 1e-9
        assert reflection_residual(lifted.base) <= 1e-10

    def test_ball_to_shell_d3(self):
        # uniform ball against a single shell: a source at radius r splits
        # with weights (2 -+ r)/4 onto +-2, so cost/mass is (4 - r^2)/2 and
        # the continuous value is int_0^1 3 r^2 (4 - r^2)/2 dr = 1.7
        lifted, c1 = solve_radial(ball_profile(), RadialAtoms(3, [2.0], [1.0]),
                                  1.0, n=400)
        assert abs(lifted.cost_ddim(1.0) - c1) <= 1e-9
        assert reflection_residual(lifted.base) <= 1e-10
        assert c1 == pytest.approx(1.7, abs=1e-4)

    def test_interleaved_shells_lp_path(self):
        mu = RadialAtoms(2, [1.0], [1.0])
        nu = RadialAtoms(2, [0.5, 2.0], [2.0 / 3.0, 1.0 / 3.0])
        lifted, c1 = solve_radial(mu, nu, 1.0)
        assert lifted.maps is None  # not separated: LP path
        assert c1 == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert reflection_residual(lifted.base) <= 1e-10

    @pytest.mark.parametrize("gamma", [1e-10, 1.0, 1e12])
    def test_lp_path_at_any_mass_scale(self, gamma):
        mu = RadialAtoms(2, [1.0, 1.7], [0.6 * gamma, 0.4 * gamma])
        nu = RadialAtoms(2, [0.5, 1.2, 2.0, 3.1],
                         [0.3 * gamma, 0.2 * gamma, 0.3 * gamma, 0.2 * gamma])
        lifted, c1 = solve_radial(mu, nu, 1.0)
        assert lifted.maps is None
        assert c1 == pytest.approx(0.7883870967741936 * gamma, rel=1e-12)

    def test_lp_path_takes_any_optimal_corner(self):
        # mu at -0.8 and 0.8 against nu at -4, 0 and 4 (odd n puts a cell at
        # 0): the optimal couplings form a segment that reflection maps onto
        # itself, and the simplex returns an asymmetric end of it. Averaging
        # it with its mirror gives the symmetric optimizer of the same cost.
        mu = RadialProfile(2, [0.0, 0.8, 1.2, 4.4], [0.0, 1.0, 0.0])
        nu = RadialProfile(2, [0.0, 0.2, 3.8, 4.2, 4.4], [4.0, 0.0, 0.2, 0.0])
        mu1, nu1 = (quantize(induce_1d(m, 11)) for m in (mu, nu))
        assert len(nu1) == 3 and nu1.positions[1] == 0.0
        sol = solve_lp(mu1, nu1, 0.5)
        assert reflection_residual(sol.coupling) > 1.0
        lifted, c1 = solve_radial(mu, nu, 0.5, n=11)
        assert lifted.maps is None
        assert reflection_residual(lifted.base) == 0.0
        assert c1 == pytest.approx(sol.objective, rel=1e-12)
        assert validate_coupling(lifted.base, mu1, nu1).ok(1e-12)

    def test_common_mass_stays_put(self):
        mu = RadialAtoms(2, [1.0, 3.0], [0.8, 0.2])
        nu = RadialAtoms(2, [0.5, 2.0, 3.0], [0.8 * 2 / 3, 0.8 / 3, 0.2])
        lifted, _ = solve_radial(mu, nu, 1.0)
        diag = sum(w for x, y, w in lifted.base.entries() if x == y)
        assert diag == pytest.approx(0.2, abs=1e-12)

    def test_order_failure_reports_refinement(self):
        from motkit import NotInConvexOrderError
        with pytest.raises(NotInConvexOrderError):
            solve_radial(disk_profile(2.0), RadialAtoms(2, [1.0], [1.0]), 1.0)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            solve_radial(disk_profile(), ball_profile(), 1.0)


@pytest.fixture(scope="module")
def lifted():
    out, _ = solve_radial(disk_profile(), RadialAtoms(2, [2.0], [1.0]),
                          1.0, n=400)
    return out


class TestSampling:
    def test_deterministic_under_seed(self, lifted):
        x1, y1 = sample_lifted(lifted, 1000, seed=9)
        x2, y2 = sample_lifted(lifted, 1000, seed=9)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        x3, _ = sample_lifted(lifted, 1000, seed=10)
        assert not np.array_equal(x1, x3)

    def test_annulus_chi_square(self, lifted):
        n = 100_000
        x, _ = sample_lifted(lifted, n, seed=12345)
        radii = np.linalg.norm(x, axis=1)
        base = lifted.base
        edges = np.linspace(0.0, 1.0000001, 9)
        expect, _ = np.histogram(np.abs(base.xs), bins=edges, weights=base.masses)
        got, _ = np.histogram(radii, bins=edges)
        chi = stats.chisquare(got, expect / expect.sum() * n)
        assert chi.pvalue > 0.001

    def test_martingale_means(self, lifted):
        n = 100_000
        x, y = sample_lifted(lifted, n, seed=999)
        delta = y - x
        se = delta.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(delta.mean(axis=0)) <= 4 * se)


class TestRotate:
    @pytest.fixture()
    def plan(self):
        return Coupling([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
                        [[2.0, 0.0], [0.0, 1.0], [-1.0, 1.0]],
                        [0.3, 0.3, 0.4], dim=2)

    def test_identity(self, plan):
        out = rotate_pushforward(plan, np.eye(2))
        assert np.array_equal(out.xs, plan.xs) and np.array_equal(out.ys, plan.ys)

    def test_cost_invariance(self, plan):
        rng = np.random.default_rng(31)
        for _ in range(5):
            M = rotation_2d(rng.uniform(0, 2 * np.pi))
            for p in (0.5, 1.0):
                assert abs(cost(rotate_pushforward(plan, M), p)
                           - cost(plan, p)) <= 1e-12

    def test_quarter_turn_coordinates(self, plan):
        M = rotation_2d(np.pi / 2)
        out = rotate_pushforward(plan, M)
        assert np.allclose(out.xs[0], [0.0, 1.0])
        assert np.allclose(out.ys[0], [0.0, 2.0])

    def test_non_orthogonal_rejected(self, plan):
        with pytest.raises(InputError):
            rotate_pushforward(plan, np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestREquivalence:
    def test_rotation_equivalent(self):
        rng = np.random.default_rng(37)
        phi = DiscreteMeasure(rng.normal(size=(6, 2)), rng.uniform(0.1, 1, 6), dim=2)
        M = rotation_2d(1.1)
        psi = DiscreteMeasure(phi.positions @ M.T, phi.masses, dim=2)
        assert r_equivalent(phi, psi, np.linspace(0, 5, 11))

    def test_different_radii(self):
        phi = DiscreteMeasure([[1.0, 0.0]], [1.0], dim=2)
        psi = DiscreteMeasure([[0.0, 2.0]], [1.0], dim=2)
        assert not r_equivalent(phi, psi, np.linspace(0, 3, 7))

    def test_deformation_endpoints_equivalent(self):
        # mass pair sliding along a circle: start and end carry the same
        # annulus masses
        r, z = 1.3, 0.4
        a = np.sqrt(r * r - z * z)
        w_n, w_s = (r + z) / (2 * r), (r - z) / (2 * r)
        start = DiscreteMeasure([[a, z], [-a, z]], [0.5, 0.5], dim=2)
        end = DiscreteMeasure([[0.0, r], [0.0, -r]], [w_n, w_s], dim=2)
        assert r_equivalent(start, end, [0.0, r / 2, 2 * r])

    def test_reflexive_symmetric_transitive(self):
        rng = np.random.default_rng(41)
        phi = DiscreteMeasure(rng.normal(size=(5, 2)), rng.uniform(0.1, 1, 5), dim=2)
        edges = np.linspace(0, 4, 9)
        assert r_equivalent(phi, phi, edges, tol=0.0)
        M1, M2 = rotation_2d(0.3), rotation_2d(2.0)
        psi = DiscreteMeasure(phi.positions @ M1.T, phi.masses, dim=2)
        rho = DiscreteMeasure(phi.positions @ M2.T, phi.masses, dim=2)
        assert r_equivalent(phi, psi, edges) and r_equivalent(psi, rho, edges)
        assert r_equivalent(phi, rho, edges)


class TestLSymmetrize:
    def test_fixed_point(self):
        phi = DiscreteMeasure([[1.0, 1.0], [1.0, -1.0]], [0.5, 0.5], dim=2)
        out = l_symmetrize_2d(phi, [1.0, 0.0])
        assert len(out) == 2
        assert np.allclose(np.sort(out.masses), [0.5, 0.5])

    def test_reflection_split(self):
        phi = DiscreteMeasure([[1.0, 1.0]], [1.0], dim=2)
        out = l_symmetrize_2d(phi, [1.0, 0.0])
        assert len(out) == 2
        assert np.allclose(sorted(map(tuple, out.positions)),
                           [(1.0, -1.0), (1.0, 1.0)])
        assert np.allclose(out.masses, [0.5, 0.5])

    def test_cost_to_axis_point_preserved(self):
        phi = DiscreteMeasure([[1.0, 1.0]], [1.0], dim=2)
        out = l_symmetrize_2d(phi, [1.0, 0.0])
        x = np.array([2.0, 0.0])
        before = float(np.dot(phi.masses, np.linalg.norm(phi.positions - x, axis=1)))
        after = float(np.dot(out.masses, np.linalg.norm(out.positions - x, axis=1)))
        assert before == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert after == pytest.approx(before, abs=1e-15)

    def test_zero_direction_rejected(self):
        with pytest.raises(InputError):
            l_symmetrize_2d(DiscreteMeasure([[1.0, 0.0]], [1.0], dim=2), [0.0, 0.0])


class TestGroupAverage:
    def test_rotation_average_keeps_cost(self):
        # averaging the optimal plan over the instance's symmetry group
        # keeps it feasible and optimal
        mu, nu = ring_instance(n_fold=8)
        sol = solve_lp(mu, nu, 1.0)
        from motkit import coupling_matrix
        mat = np.zeros((len(mu), len(nu)))
        for k in range(8):
            M = rotation_2d(2 * np.pi * k / 8)
            rot = rotate_pushforward(sol.coupling, M)
            mat += coupling_matrix(rot, mu, nu) / 8
        ii, jj = np.nonzero(mat > 1e-15)
        avg = Coupling(mu.positions[ii], nu.positions[jj], mat[ii, jj], dim=2)
        rep = validate_coupling(avg, mu, nu)
        assert max(rep.to_dict().values()) <= 1e-9
        assert cost(avg, 1.0) == pytest.approx(sol.objective, abs=1e-9)


class TestRadialSpecFiles:
    def test_roundtrip(self, tmp_path):
        doc = {
            "dim": 2,
            "mu": {"type": "radial-grid", "r": [0.0, 0.5, 1.0], "f": [0.1, 0.2]},
            "nu": {"type": "radial-atoms", "atoms": [[2.0, 1.0]]},
        }
        path = tmp_path / "rad.json"
        path.write_text(json.dumps(doc))
        dim, mu, nu = load_radial_pair(path)
        assert dim == 2
        assert isinstance(mu, RadialProfile) and isinstance(nu, RadialAtoms)

    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "rad.json"
        path.write_text(json.dumps({"dim": 2, "mu": {"type": "blob"},
                                    "nu": {"type": "blob"}}))
        with pytest.raises(InputError):
            load_radial_pair(path)
