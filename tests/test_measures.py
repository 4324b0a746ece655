import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motkit import (DiscreteMeasure, GridDensity, InputError, call_function,
                    common_mass_split, convex_order_check, quantize)
from motkit.measures import (POSITION_TOL, _as_rows, _merge_groups, group_atoms,
                             nearest_atom)
from instances import separated_instance


class TestQuantize:
    def test_uniform_two_cells(self):
        g = GridDensity(-1.0, 1.0, 2, [0.5, 0.5])
        q = quantize(g)
        assert np.allclose(q.positions, [-0.5, 0.5])
        assert np.allclose(q.masses, [0.5, 0.5])

    def test_uniform_four_cells(self):
        g = GridDensity(-1.0, 1.0, 4, [0.5] * 4)
        q = quantize(g)
        assert np.allclose(q.positions, [-0.75, -0.25, 0.25, 0.75])
        assert np.allclose(q.masses, 0.25)

    def test_triangular_mass_and_mean(self):
        n = 100
        mids = GridDensity(-1.0, 1.0, n, np.ones(n)).midpoints()
        g = GridDensity(-1.0, 1.0, n, np.abs(mids))
        q = quantize(g)
        mass, mean = q.total_mass(), q.mean()
        assert abs(mass - 1.0) <= 1e-12
        assert abs(mean) <= 1e-12

    def test_zero_cells_dropped(self):
        g = GridDensity(0.0, 3.0, 3, [1.0, 0.0, 2.0])
        q = quantize(g)
        assert len(q) == 2

    def test_zero_mass_rejected(self):
        with pytest.raises(InputError):
            GridDensity(0.0, 1.0, 2, [0.0, 0.0])

    def test_mass_and_mean_preserved_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            lo = float(rng.uniform(-3, 0))
            hi = float(rng.uniform(0.5, 3))
            vals = rng.uniform(0, 2, size=n)
            vals[rng.random(n) < 0.2] = 0.0
            if vals.sum() == 0:
                vals[0] = 1.0
            g = GridDensity(lo, hi, n, vals)
            q = quantize(g)
            w = g.cell_width
            assert abs(q.total_mass() - g.total_mass()) <= 1e-12
            exact_mean = float(np.dot(vals * w, g.midpoints())) / g.total_mass()
            assert abs(q.mean() - exact_mean) <= 1e-12


class TestConvexOrder:
    def test_jensen_pair(self):
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        assert convex_order_check(mu, nu).in_order

    def test_reversed_pair(self):
        mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([0.0], [1.0])
        rep = convex_order_check(mu, nu)
        assert not rep.in_order
        assert abs(rep.worst_k) < 1e-12
        assert rep.worst_gap < -0.4

    def test_tied_minimum_reports_leftmost_strike(self):
        # the exact gap is 0 at both nu atoms; evaluated, it is 2.2e-16 at
        # -0.6 and 0.0 at 0.8, and the leftmost strike within tol is reported
        mu = DiscreteMeasure([0.2], [1.0])
        nu = DiscreteMeasure([-0.6, 0.8], [0.6 / 1.4, 0.8 / 1.4])
        rep = convex_order_check(mu, nu)
        assert rep.in_order
        assert rep.worst_k == -0.6
        assert rep.worst_gap == 0.0
        assert convex_order_check(mu, nu, tol=0.0).worst_k == 0.8

    def test_reflexive_at_zero_tol(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu = DiscreteMeasure(rng.uniform(-3, 3, 7), rng.uniform(0.1, 1, 7))
            assert convex_order_check(mu, mu, tol=0.0).in_order

    def test_unequal_mass_not_in_order(self):
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.6])
        rep = convex_order_check(mu, nu)
        assert not rep.in_order
        assert abs(rep.mass_gap - 0.1) < 1e-12

    def test_agrees_with_dense_k_oracle(self):
        # oracle: evaluate the call-function gap on a dense strike grid
        # (10k points plus the kinks) by the direct strikes x atoms formula
        # and take its minimum; offsets check that large positions do not
        # cancel in the suffix sums
        def dense_calls(m, ks):
            return np.maximum(m.positions[None, :] - ks[:, None], 0.0) @ m.masses

        for offset in (0.0, 1e3, 1e6):
            rng = np.random.default_rng(11)
            for trial in range(25):
                if trial % 2 == 0:
                    mu, nu = separated_instance(rng, kmax=10)
                else:
                    nu, mu = separated_instance(rng, kmax=10)
                mu = DiscreteMeasure(mu.positions + offset, mu.masses)
                nu = DiscreteMeasure(nu.positions + offset, nu.masses)
                span = np.concatenate([mu.positions, nu.positions])
                ks = np.union1d(
                    np.linspace(span.min() - 1, span.max() + 1, 10_000), span)
                dense_gap = float(np.min(dense_calls(nu, ks) - dense_calls(mu, ks)))
                rep = convex_order_check(mu, nu)
                assert abs(rep.worst_gap - dense_gap) <= 1e-12
                exact = (sum(Fraction(w) * Fraction(x) for x, w in nu.atoms())
                         - sum(Fraction(w) * Fraction(x) for x, w in mu.atoms()))
                assert abs(rep.mean_gap - exact) <= 1e-12
                if offset == 0.0:
                    # shifted positions round by up to half an ulp of the
                    # offset, which moves the means by about the 1e-10
                    # tolerance of in_order
                    assert rep.in_order == (dense_gap >= -1e-10)
                assert np.allclose(call_function(mu, ks), dense_calls(mu, ks),
                                   rtol=0.0, atol=1e-12)

    def test_memory_linear_in_atoms(self):
        # the gap comes from suffix sums, not a strikes x atoms matrix
        # (3000 x 3000 floats alone would be 72 MB)
        rng = np.random.default_rng(17)
        n = 3000
        mu = DiscreteMeasure(rng.uniform(-1, 1, n), np.full(n, 1 / n))
        nu = DiscreteMeasure(rng.uniform(-3, 3, n), np.full(n, 1 / n))
        tracemalloc.start()
        try:
            convex_order_check(mu, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_transitive_on_spread_chain(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            mu, nu = separated_instance(rng, kmax=5)
            # spread nu once more: each atom splits symmetrically
            pos, w = [], []
            for y, m in zip(nu.positions, nu.masses):
                d = float(rng.uniform(0.01, 0.2))
                pos += [y - d, y + d]
                w += [m / 2, m / 2]
            rho = DiscreteMeasure(pos, w)
            assert convex_order_check(mu, nu).in_order
            assert convex_order_check(nu, rho).in_order
            assert convex_order_check(mu, rho).in_order


class TestCommonMass:
    def test_shared_atom(self):
        mu = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
        common, mu_bar, nu_bar = common_mass_split(mu, nu)
        assert common.atoms() == [(0.0, 0.5)]
        assert mu_bar.atoms() == [(1.0, 0.5)]
        assert nu_bar.atoms() == [(2.0, 0.5)]

    def test_identical_marginals(self):
        mu = DiscreteMeasure([-1.0, 2.0], [0.3, 0.7])
        common, mu_bar, nu_bar = common_mass_split(mu, mu)
        assert len(mu_bar) == 0 and len(nu_bar) == 0
        assert np.allclose(common.masses, mu.masses)

    def test_disjoint_supports(self):
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([1.0], [1.0])
        common, mu_bar, nu_bar = common_mass_split(mu, nu)
        assert len(common) == 0
        assert mu_bar.total_mass() == 1.0

    def test_residuals_disjoint_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            shared = rng.uniform(-2, 2, 4)
            mu = DiscreteMeasure(np.concatenate([shared, rng.uniform(-2, 2, 3)]),
                                 rng.uniform(0.1, 1, 7))
            nu = DiscreteMeasure(np.concatenate([shared, rng.uniform(-2, 2, 3)]),
                                 rng.uniform(0.1, 1, 7))
            common, mu_bar, nu_bar = common_mass_split(mu, nu)
            # reassembly and disjointness
            assert abs(common.total_mass() + mu_bar.total_mass() - mu.total_mass()) < 1e-12
            assert abs(common.total_mass() + nu_bar.total_mass() - nu.total_mass()) < 1e-12
            for x in mu_bar.positions:
                assert np.min(np.abs(nu_bar.positions - x), initial=np.inf) > 1e-10

    def test_two_mu_atoms_near_one_nu_atom(self):
        # both mu atoms lie within tolerance of the single nu atom, so all
        # of the mass is common and nothing is left to transport
        mu = DiscreteMeasure([0.0, 1.5e-12], [0.5, 0.5])
        nu = DiscreteMeasure([0.75e-12], [1.0])
        common, mu_bar, nu_bar = common_mass_split(mu, nu)
        assert common.total_mass() == 1.0
        assert len(mu_bar) == 0 and len(nu_bar) == 0


class TestMoments:
    def test_symmetric_pair(self):
        m = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
        assert (m.total_mass(), m.mean()) == (1.0, 0.0)

    def test_point_mass(self):
        m = DiscreteMeasure([3.0], [1.0])
        assert (m.total_mass(), m.mean()) == (1.0, 3.0)

    def test_quantized_triangular(self):
        n = 200
        mids = GridDensity(-1.0, 1.0, n, np.ones(n)).midpoints()
        q = quantize(GridDensity(-1.0, 1.0, n, np.abs(mids)))
        mass, mean = q.total_mass(), q.mean()
        assert abs(mass - 1.0) <= 1e-10
        assert abs(mean) <= 1e-10


class TestConstruction:
    def test_duplicates_merged(self):
        m = DiscreteMeasure([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert len(m) == 2
        assert m.atoms()[0] == (1.0, 0.5)

    def test_nearby_positions_merged_at_weighted_mean(self):
        m = DiscreteMeasure([1.0, 1.0 + 5e-13], [0.75, 0.25])
        assert len(m) == 1
        assert abs(m.positions[0] - (1.0 + 1.25e-13)) < 1e-15

    def test_shared_exact_position_kept(self):
        # the weighted mean of three equal positions rounds one ulp away
        x = -0.9983333333333333
        m = DiscreteMeasure([x] * 3, [0.1, 0.2, 0.3])
        assert len(m) == 1
        assert m.positions[0] == x
        m2 = DiscreteMeasure([[x, 1 / 3]] * 3, [0.1, 0.2, 0.3], dim=2)
        assert np.array_equal(m2.positions, [[x, 1 / 3]])

    def test_huge_mass_times_position_does_not_overflow(self):
        # the mean is taken about the group's first member, so mass times
        # position is never formed
        m = DiscreteMeasure([10.0], [1e308])
        assert m.atoms() == [(10.0, 1e308)]

    def test_total_mass_beyond_float_range_rejected(self):
        # each mass is finite and no two merge, but the total overflows
        with pytest.raises(InputError, match="total mass"):
            DiscreteMeasure([0.0, 1.0], [1e308, 1e308])

    def test_merged_mass_beyond_float_range_rejected(self):
        with pytest.raises(InputError):
            DiscreteMeasure([1.0, 1.0], [1.5e308, 1.5e308])

    def test_negative_mass_rejected(self):
        with pytest.raises(InputError):
            DiscreteMeasure([0.0], [-1.0])

    def test_dim2_atoms(self):
        m = DiscreteMeasure([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
                            [0.2, 0.3, 0.5], dim=2)
        assert len(m) == 2
        assert abs(m.total_mass() - 1.0) < 1e-15


class TestAtomIndex:
    def test_chain_rule(self):
        t = 1e-12
        assert group_atoms([5.0, 1.8 * t, 0.0, 0.9 * t]).tolist() == [1, 0, 0, 0]
        # B and C are close; A is within tolerance of neither, although each
        # coordinate alone chains all three together
        pts = [[0.0, 0.0], [0.9 * t, 1.8 * t], [1.8 * t, 0.9 * t]]
        assert group_atoms(pts).tolist() == [0, 1, 1]

    def test_nearest_atom_credits_one_atom(self):
        atoms = [[0.0, 0.0], [2e-12, 0.0], [1.0, 1.0]]
        pts = [[1e-12, 0.0], [1.9e-12, 0.0], [1.0, 1.0 + 5e-10]]
        assert nearest_atom(atoms, pts).tolist() == [0, 1, -1]
        assert nearest_atom([], [0.0]).tolist() == [-1]


def loop_merge(positions, masses):
    """The per-group loop `_merge_groups` used before it was vectorized."""
    labels = group_atoms(positions)
    order = np.lexsort((*_as_rows(positions).T[::-1], labels))
    starts = np.concatenate(([0], np.flatnonzero(np.diff(labels[order])) + 1))
    ends = np.append(starts[1:], len(order))
    out_pos = positions[order[starts]]
    out_mass = masses[order[starts]]
    for g in np.flatnonzero(ends - starts > 1):
        idx = order[starts[g]:ends[g]]
        out_mass[g] = masses[idx].sum()
        if np.any(positions[idx] != positions[idx[0]]):
            out_pos[g] = np.dot(masses[idx], positions[idx]) / out_mass[g]
    final = np.lexsort(_as_rows(out_pos).T[::-1])
    return out_pos[final], out_mass[final]


@st.composite
def atom_clouds(draw):
    """Points on a grid of step 0.5, nudged by multiples of 0.7 POSITION_TOL
    per coordinate (so groups form chains), with exact repeats."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    cell = st.tuples(*[st.integers(-3, 3)] * d)
    nudge = st.tuples(*[st.integers(0, 3)] * d)
    pts = [0.5 * np.array(draw(cell)) + 0.7 * POSITION_TOL * np.array(draw(nudge))
           for _ in range(n)]
    pts += [pts[draw(st.integers(0, n - 1))] for _ in range(draw(st.integers(0, 5)))]
    pts = np.array(pts)
    w = np.array([draw(st.floats(1e-3, 1.0)) for _ in range(len(pts))])
    return (pts[:, 0] if d == 1 else pts), w


class TestMergeGroups:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(atom_clouds())
    def test_matches_loop(self, cloud):
        pts, w = cloud
        pos, mass = _merge_groups(pts, w)
        ref_pos, ref_mass = loop_merge(pts, w)
        assert pos.shape == ref_pos.shape
        # merged means may differ in the last bits, which can swap the order
        # of two atoms within POSITION_TOL: match atoms by the atom index
        k = nearest_atom(pos, ref_pos)
        assert sorted(k.tolist()) == list(range(len(pos)))
        # sums in another order: within (members - 1) roundings of the result
        eps = (len(w) - 1) * np.finfo(float).eps
        assert np.abs(pos[k] - ref_pos).max() <= eps * max(1.0, np.abs(pts).max())
        assert (np.abs(mass[k] - ref_mass) <= eps * ref_mass).all()
        # a group whose members coincide keeps their exact position
        labels = group_atoms(pts)
        rows = _as_rows(pts)
        for g in range(labels.max() + 1):
            members = rows[labels == g]
            if (members == members[0]).all():
                assert (_as_rows(pos) == members[0]).all(axis=1).any()
