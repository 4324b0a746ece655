import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motkit import (Coupling, DiscreteMeasure, InputError,
                    NotInConvexOrderError, SeparationInterval, cost,
                    coupling_matrix, detect_separation, reflection_residual,
                    solve, solve_lp, validate_coupling)
from motkit.mot1d import (SNAP_FRACTION, read_coupling_json, solve_sweep,
                          write_coupling_json, write_maps_csv)
from instances import separated_instance, six_atom_symmetric_nu, triangular_grid
from motkit import RadialAtoms, RadialProfile, induce_1d, induced_atoms, quantize
from row_walk import row_walk_sweep

I_UNIT = SeparationInterval(-1.0, 1.0)
NU_SYM = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])


def two_atom_row_oracle(mu, nu):
    """Independent oracle when nu has one atom per side: each row's split is
    the unique solution of a 2x2 mass/barycenter linear system."""
    y1, y2 = nu.positions
    rows = {}
    for x, m in zip(mu.positions, mu.masses):
        A = np.array([[1.0, 1.0], [y1, y2]])
        w = np.linalg.solve(A, np.array([m, m * x]))
        rows[float(x)] = {float(y1): w[0], float(y2): w[1]}
    return rows


class TestSweepExamples:
    def test_point_mass_forced_split(self):
        mu = DiscreteMeasure([0.0], [1.0])
        pi, maps = solve_sweep(mu, NU_SYM, I_UNIT)
        assert sorted(pi.entries()) == [(0.0, -2.0, 0.5), (0.0, 2.0, 0.5)]
        assert cost(pi, 1.0) == 2.0
        assert cost(pi, 0.5) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_two_atom_rows_match_linear_system(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        pi, _ = solve_sweep(mu, NU_SYM, I_UNIT)
        oracle = two_atom_row_oracle(mu, NU_SYM)
        for x, ys, ws in pi.rows():
            for y, w in zip(ys, ws):
                assert w == pytest.approx(oracle[x][float(y)], abs=1e-12)
        assert oracle[-0.5][-2.0] == pytest.approx(0.3125)
        assert oracle[-0.5][2.0] == pytest.approx(0.1875)
        assert cost(pi, 1.0) == pytest.approx(1.875, abs=1e-12)

    def test_random_two_atom_nu_matches_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = int(rng.integers(1, 12))
            xs = rng.uniform(-0.9, 0.9, k)
            ws = rng.uniform(0.1, 1.0, k)
            mu = DiscreteMeasure(xs, ws / ws.sum())
            ylo, yhi = float(rng.uniform(-3, -1.1)), float(rng.uniform(1.1, 3))
            oracle = two_atom_row_oracle(mu, DiscreteMeasure([ylo, yhi], [1, 1]))
            wlo = sum(r[ylo] for r in oracle.values())
            whi = sum(r[yhi] for r in oracle.values())
            nu = DiscreteMeasure([ylo, yhi], [wlo, whi])
            pi, _ = solve_sweep(mu, nu, I_UNIT)
            for x, ys, ws_ in pi.rows():
                for y, w in zip(ys, ws_):
                    assert w == pytest.approx(oracle[x][float(y)], abs=1e-11)


class TestSweepAgainstLp:
    def test_random_separated_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            mu, nu = separated_instance(rng)
            interval = detect_separation(mu, nu)
            assert interval is not None
            pi, _ = solve_sweep(mu, nu, interval)
            mat = coupling_matrix(pi, mu, nu)
            for p in (0.5, 1.0):
                sol = solve_lp(mu, nu, p)
                assert sol.status == "optimal"
                assert abs(cost(pi, p) - sol.objective) <= 1e-8
                assert np.abs(mat - sol.matrix).max() <= 1e-7

    def test_invariants_on_solver_output(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            mu, nu = separated_instance(rng)
            pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
            rep = validate_coupling(pi, mu, nu)
            assert max(rep.to_dict().values()) <= 1e-9

    def test_row_supports_decrease(self):
        # stronger than the map check: whole per-side supports of later rows
        # sit at or below the earlier rows' supports
        rng = np.random.default_rng(101)
        for _ in range(10):
            mu, nu = separated_instance(rng)
            interval = detect_separation(mu, nu)
            pi, _ = solve_sweep(mu, nu, interval)
            rows = pi.rows()
            for (x1, ys1, ws1), (x2, ys2, ws2) in zip(rows, rows[1:]):
                assert x1 < x2
                for side in ("lower", "upper"):
                    if side == "lower":
                        s1 = ys1[(ys1 <= interval.a) & (ws1 > 1e-12)]
                        s2 = ys2[(ys2 <= interval.a) & (ws2 > 1e-12)]
                    else:
                        s1 = ys1[(ys1 >= interval.b) & (ws1 > 1e-12)]
                        s2 = ys2[(ys2 >= interval.b) & (ws2 > 1e-12)]
                    if len(s1) and len(s2):
                        assert s2.max() <= s1.min() + 1e-12

    def test_contiguity_per_side(self):
        # each row consumes a contiguous run of the nu atom list per side
        rng = np.random.default_rng(37)
        for _ in range(10):
            mu, nu = separated_instance(rng)
            interval = detect_separation(mu, nu)
            pi, _ = solve_sweep(mu, nu, interval)
            lower = np.sort(nu.positions[nu.positions <= interval.a])
            upper = np.sort(nu.positions[nu.positions >= interval.b])
            for _, ys, ws in pi.rows():
                real = ys[ws > 1e-9 * ws.sum()]
                for side in (lower, upper):
                    hit = np.nonzero(np.isin(side, real))[0]
                    if len(hit) > 1:
                        assert np.all(np.diff(hit) == 1)


class TestExactSweep:
    """Each row's moment equation is solved exactly on the kinks of the
    frontiers, so the residuals sit at rounding level."""

    @pytest.mark.parametrize("n", [10, 100, 1000, 4000])
    def test_triangular_residuals_at_rounding(self, n):
        mu = quantize(triangular_grid(n))
        nu = six_atom_symmetric_nu()
        pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
        rep = validate_coupling(pi, mu, nu)
        assert rep.barycenter_residual <= 4e-15
        assert rep.row_residual <= 1e-14
        assert rep.column_residual <= 1e-14

    @staticmethod
    def heavy_instance():
        # two light atoms spread to the outer nu atoms; the heavy atom at 0.1
        # spreads evenly over four atoms on each side, so its row crosses
        # every nu atom
        lows, highs = [-1.1, -1.3, -1.45, -1.7], [1.15, 1.35, 1.6, 1.8]
        spreads = [(-0.6, 0.05, [-2.9], [2.3]), (0.1, 0.8, lows, highs),
                   (0.6, 0.05, [-2.2], [2.9])]
        acc = {}
        for x, m, los, his in spreads:
            for lo, hi in zip(los, his):
                t = (hi - x) / (hi - lo)
                acc[lo] = acc.get(lo, 0.0) + m / len(los) * t
                acc[hi] = acc.get(hi, 0.0) + m / len(los) * (1 - t)
        mu = DiscreteMeasure([s[0] for s in spreads], [s[1] for s in spreads])
        return mu, DiscreteMeasure(list(acc), list(acc.values()))

    def test_heavy_row_matches_lp(self):
        mu, nu = self.heavy_instance()
        interval = detect_separation(mu, nu)
        pi, _ = solve_sweep(mu, nu, interval)
        _, ys, _ = pi.rows()[1]
        assert (ys <= interval.a).sum() >= 3 and (ys >= interval.b).sum() >= 3
        mat = coupling_matrix(pi, mu, nu)
        for p in (0.5, 1.0):
            sol = solve_lp(mu, nu, p)
            assert sol.status == "optimal"
            assert np.abs(mat - sol.matrix).max() <= 1e-9

    def test_root_on_atom_boundary_takes_whole_atoms(self):
        # row k takes exactly the k-th lower and k-th upper nu atom in
        # consumption order, so every root lands on a kink of both sides
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            xs = np.sort(rng.uniform(-0.9, 0.9, size=k))
            lows = np.sort(rng.uniform(-3.0, -1.0, size=k))[::-1]
            highs = np.sort(rng.uniform(1.0, 3.0, size=k))[::-1]
            ms = rng.uniform(0.1, 1.0, size=k) / 3
            w_lo = ms * (highs - xs) / (highs - lows)
            w_hi = ms - w_lo
            mu = DiscreteMeasure(xs, w_lo + w_hi)
            nu = DiscreteMeasure(np.concatenate([lows, highs]),
                                 np.concatenate([w_lo, w_hi]))
            pi, _ = solve_sweep(mu, nu, SeparationInterval(-1.0, 1.0))
            assert len(pi) == 2 * k
            assert pi.masses.min() > SNAP_FRACTION
            mass_of = dict(zip(nu.positions, nu.masses))
            assert all(w == mass_of[y] for y, w in zip(pi.ys, pi.masses))

    def test_dust_row_far_from_origin(self):
        # the row of 2.5e-14 drops its takes; the row walk's gate measured
        # sum w y - m x, which is -m x = -2.5e-8 at x = 1e6 and raised
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0]) / 64 + 1e6
        ms = np.array([0.25, 0.25, 0.25, 0.25, 2.5e-14])
        lower = float(np.dot(ms, (1e6 + 1.0 - xs) / 2.0))
        mu = DiscreteMeasure(xs, ms)
        nu = DiscreteMeasure([1e6 - 1.0, 1e6 + 1.0], [lower, ms.sum() - lower])
        pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
        rep = validate_coupling(pi, mu, nu)
        assert rep.barycenter_residual <= 1e-15
        assert rep.row_residual <= SNAP_FRACTION
        assert pi.xs.max() < xs[-1]


class TestTwoPointSupport:
    def test_quantized_rows_thin_out(self):
        nu = six_atom_symmetric_nu()
        fractions = {}
        for n in (250, 1000):
            mu = quantize(triangular_grid(n))
            interval = detect_separation(mu, nu)
            pi, _ = solve_sweep(mu, nu, interval)
            from motkit import count_targets_per_side
            counts = count_targets_per_side(pi, interval.a, interval.b)
            assert all(lo <= 2 and hi <= 2 for lo, hi in counts)
            multi = sum(1 for lo, hi in counts if lo > 1 or hi > 1)
            fractions[n] = multi / len(counts)
        assert fractions[1000] < fractions[250]


class TestSnapScale:
    def test_tiny_masses_keep_every_entry(self):
        # every mass times 1e-8: a snap of 1e-13 absolute, not of nu's mass,
        # dropped 22 of the 2,004 entries, a row residual of 1e-4 of the mass
        grid, six = quantize(triangular_grid(1000)), six_atom_symmetric_nu()
        mu = DiscreteMeasure(grid.positions, grid.masses * 1e-8)
        nu = DiscreteMeasure(six.positions, six.masses * 1e-8)
        pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
        assert len(pi) == 2004
        assert max(validate_coupling(pi, mu, nu).to_dict().values()) <= 1e-15 * mu.total_mass()


class TestSymmetricSolve:
    """The sweep of origin-symmetric marginals gives a coupling invariant
    under (x, y) -> (-x, -y)."""

    def test_symmetric_two_atoms(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        pi, _ = solve_sweep(mu, NU_SYM, I_UNIT)
        assert reflection_residual(pi) <= 1e-10

    def test_quantized_triangular_symmetric(self):
        mu = quantize(triangular_grid(80))
        pi, _ = solve_sweep(mu, NU_SYM, I_UNIT)
        assert reflection_residual(pi) <= 1e-10


class TestPreconditions:
    def test_not_in_convex_order(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        nu = DiscreteMeasure([-2.0, 2.0], [0.7, 0.3])  # mean off
        with pytest.raises(NotInConvexOrderError):
            solve(mu, nu, 1.0, method="sweep")

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf")])
    def test_cost_rejects_exponent_outside_positive_finite(self, p):
        pi = Coupling.from_entries([(0.0, 1.0, 1.0)])
        with pytest.raises(InputError, match="positive and finite"):
            cost(pi, p)
        assert cost(pi, 2.0) == 1.0


class TestSeparationDetection:
    def test_detects_gap(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        interval = detect_separation(mu, NU_SYM)
        assert interval is not None
        assert interval.a <= -0.5 and interval.b >= 0.5

    def test_overlap_returns_none(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        nu = DiscreteMeasure([-2.0, 0.0, 2.0], [0.4, 0.2, 0.4])
        assert detect_separation(mu, nu) is None


class TestSerialization:
    def test_coupling_roundtrip(self, tmp_path):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        pi, maps = solve_sweep(mu, NU_SYM, I_UNIT)
        path = tmp_path / "c.json"
        write_coupling_json(path, pi, cost(pi, 1.0), maps)
        pi2, c2, maps2 = read_coupling_json(path)
        assert c2 == pytest.approx(1.875)
        assert sorted(pi2.entries()) == sorted(pi.entries())
        assert np.allclose(maps2.lower, maps.lower)

    def test_maps_csv_header(self, tmp_path):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        _, maps = solve_sweep(mu, NU_SYM, I_UNIT)
        path = tmp_path / "m.csv"
        write_maps_csv(path, maps)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,S,T,lambda_minus,lambda_plus"
        assert len(lines) == 1 + len(maps)

    def test_malformed_coupling_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(InputError):
            read_coupling_json(path)

    def test_empty_entries_read_as_empty_coupling(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"cost": 0.0, "entries": [], "maps": None}))
        pi, c, maps = read_coupling_json(path)
        assert len(pi) == 0 and pi.dim == 1
        assert c == 0.0 and maps is None


GRID = 64   # positions are multiples of 1/GRID, so shifts by 1e3 and 1e6 are exact


@st.composite
def separated_pairs(draw):
    """Separated pair on a dyadic grid, built by martingale spreads so it is
    in convex order; mu has total mass about 1. In half the cases mu atom i
    (left to right) spreads over lower and upper atom i in consumption order
    alone, so every root lands on a kink of both frontiers; otherwise each
    mu atom spreads over one or two random pairs of pool atoms. Some mu
    atoms, and some spreads, carry masses near the snap."""
    k = draw(st.integers(1, 10))
    xs = np.array(sorted(draw(st.sets(st.integers(-GRID + 1, GRID - 1),
                                      min_size=k, max_size=k)))) / GRID
    dust = st.sampled_from(SNAP_FRACTION * np.array([0.25, 0.5, 1.0, 1.5, 2.0, 4.0]))
    ms = np.array([draw(st.one_of(st.floats(0.02, 1.0), dust)) for _ in range(k)])
    ms[ms > 0.01] /= ms[ms > 0.01].sum()
    pool = st.integers(GRID, 4 * GRID)
    if draw(st.booleans()):   # roots on kinks
        lows = -np.array(sorted(draw(st.sets(pool, min_size=k, max_size=k)))) / GRID
        highs = np.array(sorted(draw(st.sets(pool, min_size=k, max_size=k))))[::-1] / GRID
        spreads = [(i, lows[i], highs[i], ms[i]) for i in range(k)]
    else:
        spreads = []
        for i in range(k):
            parts = draw(st.sampled_from([[1.0], [0.375, 0.625], "dust"]))
            if parts == "dust":
                cut = min(draw(dust), ms[i] / 2)
                parts = [1.0 - cut / ms[i], cut / ms[i]]
            spreads += [(i, -draw(pool) / GRID, draw(pool) / GRID, share * ms[i])
                        for share in parts]
    acc = {}
    for i, lo, hi, m in spreads:
        t = (hi - xs[i]) / (hi - lo)
        acc[lo] = acc.get(lo, 0.0) + m * t
        acc[hi] = acc.get(hi, 0.0) + m * (1 - t)
    shift = draw(st.sampled_from([0.0, 1e3, 1e6]))
    return xs, ms, np.array(list(acc)), np.array(list(acc.values())), shift


def frontier_mass(nu, atoms, fracs, interval):
    """Mass each row's map says its frontier has consumed: the atoms beyond
    the map atom on its side, plus the consumed part of that atom."""
    out = []
    for y, f in zip(atoms.tolist(), fracs.tolist()):
        side = nu.positions <= interval.a if y <= interval.a else nu.positions >= interval.b
        beyond = nu.masses[side & (nu.positions > y)].sum()
        out.append(0.0 if f == 0.0 else beyond + f * nu.masses[nu.positions == y][0])
    return np.array(out)


class TestCumulativeSweepProperty:
    """The cumulative sweep against the parent's row walk (tests/row_walk.py).

    Both move masses within snap onto kinks and leave no atom with a sliver,
    but where a row's take is within snap the walk's outcome depends on the
    state the earlier rows left (it drops such a take, and the mass stays
    on the frontier for later rows or for good). The couplings are compared
    as measures on (x, y) pairs: every pair's mass agrees within 1e-12 of
    the total, so the supports are the same above that level.
    """

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(separated_pairs())
    def test_matches_row_walk(self, case):
        xs, ms, ys, ws, shift = case
        mu, nu = DiscreteMeasure(xs, ms), DiscreteMeasure(ys, ws)
        mu_s, nu_s = DiscreteMeasure(xs + shift, ms), DiscreteMeasure(ys + shift, ws)
        # the row walk runs unshifted, where it is accurate (its moments are
        # not centred); the shift is exact on the grid
        ref_interval = detect_separation(mu, nu)
        pi_ref, maps_ref = row_walk_sweep(mu, nu, ref_interval)
        interval = detect_separation(mu_s, nu_s)
        pi, maps = solve_sweep(mu_s, nu_s, interval)
        tol = 1e-12 * max(1.0, mu.total_mass())   # ten times the snap
        pairs = {}
        for x, y, w in pi_ref.entries():
            pairs[x + shift, y + shift] = pairs.get((x + shift, y + shift), 0.0) - w
        for x, y, w in pi.entries():
            pairs[x, y] = pairs.get((x, y), 0.0) + w
        assert max(map(abs, pairs.values()), default=0.0) <= tol
        # pairs above tol in either coupling are in both, in the same order
        heavy = {(x, y) for x, y, w in pi.entries() if w > tol}
        heavy |= {(x + shift, y + shift) for x, y, w in pi_ref.entries() if w > tol}
        order = [(x, y) for x, y, _ in pi.entries() if (x, y) in heavy]
        assert order == [(x + shift, y + shift) for x, y, _ in pi_ref.entries()
                         if (x + shift, y + shift) in heavy]
        # the maps: the same consumed mass per row and side, and the same
        # atoms unless the frontier stands within tol of a kink
        assert np.array_equal(maps.xs, maps_ref.xs + shift)
        for side, keep in (("lower", nu.positions <= ref_interval.a),
                           ("upper", nu.positions >= ref_interval.b)):
            kinks = np.concatenate(([0.0], np.cumsum(nu.masses[keep][::-1])))
            got = frontier_mass(nu_s, getattr(maps, side),
                                getattr(maps, side + "_frac"), interval)
            ref = frontier_mass(nu, getattr(maps_ref, side),
                                getattr(maps_ref, side + "_frac"), ref_interval)
            assert np.abs(got - ref).max() <= tol
            clear = np.abs(ref[:, None] - kinks[None, :]).min(axis=1) > tol
            assert np.array_equal(getattr(maps, side)[clear],
                                  getattr(maps_ref, side)[clear] + shift)

    def test_light_rows_carry_absolute_rounding(self):
        # d = 3 ball against shells: the cells next to the origin weigh 1e-9
        # of the total; each entry and row sum agrees with the row walk's to
        # a few ulps of the total mass, not of its row
        mu = quantize(induce_1d(RadialProfile(3, np.linspace(0.0, 1.0, 11),
                                              np.linspace(1.5, 0.5, 10)), 3000))
        nu = induced_atoms(RadialAtoms(3, [1.3, 1.7, 2.2, 2.9],
                                       np.array([0.3, 0.2, 0.3, 0.2]) * mu.total_mass()))
        interval = detect_separation(mu, nu)
        pi, _ = solve_sweep(mu, nu, interval)
        ref, _ = row_walk_sweep(mu, nu, interval)
        bound = 32 * np.finfo(float).eps * mu.total_mass()
        assert mu.masses.min() < 1e-9 * mu.total_mass()
        pairs = {}
        for x, y, w in ref.entries():
            pairs[x, y] = pairs.get((x, y), 0.0) - w
        for x, y, w in pi.entries():
            pairs[x, y] = pairs.get((x, y), 0.0) + w
        assert max(map(abs, pairs.values())) <= bound
        rows = np.bincount(np.searchsorted(mu.positions, pi.xs), pi.masses, len(mu))
        assert np.abs(rows - mu.masses).max() <= bound

    def test_memory_linear_in_cells(self):
        mu = quantize(triangular_grid(100_000))
        nu = six_atom_symmetric_nu()
        interval = detect_separation(mu, nu)
        tracemalloc.start()
        try:
            pi, _ = solve_sweep(mu, nu, interval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few dozen float arrays of the rows' or the entries' length
        assert len(pi) <= 200_004
        assert peak < 400 * len(mu)
