import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motkit import (Coupling, DeformationInstance, DiscreteMeasure,
                    InputError, TransportMaps, check_decreasing,
                    coupling_matrix, curve_is_constant,
                    curve_is_strictly_decreasing, deformation_curve,
                    detect_forbidden, detect_separation, quantize,
                    random_deformation_instance, validate_coupling)
from motkit.mot1d import solve_sweep
from motkit.verify import DETECT_MASS_TOL, ForbiddenConfig, _flag_rows
from instances import (plant_cross_swap, separated_instance,
                       six_atom_symmetric_nu, triangular_grid)
from lemmas import count_targets_per_side, from_entries, row_list, swap_gain


def exhaustive_forbidden(pi, tol=DETECT_MASS_TOL):
    """Every target pair of every row against every entry. Rows group
    sources by exact position, which is the `group_atoms` grouping for
    positions on a grid much coarser than POSITION_TOL."""
    keep = pi.masses > tol
    ex = pi.xs[keep]
    ey = pi.ys[keep]
    found = []
    for x in np.unique(pi.xs).tolist():
        ys = np.sort(pi.ys[(pi.xs == x) & keep])
        for i in range(len(ys)):
            for k in range(i + 1, len(ys)):
                y_m, y_p = float(ys[i]), float(ys[k])
                between = (ey > y_m) & (ey < y_p)
                mask_a = between & (ex > y_m) & (ex < x) & (ey >= x)
                mask_b = between & (ey <= x) & (ex > x) & (ex < y_p)
                for idx in np.nonzero(mask_a)[0]:
                    found.append(ForbiddenConfig(x, y_m, y_p,
                                                 float(ex[idx]), float(ey[idx]), "A"))
                for idx in np.nonzero(mask_b)[0]:
                    found.append(ForbiddenConfig(x, y_m, y_p,
                                                 float(ex[idx]), float(ey[idx]), "B"))
    return found


# half-integer positions, so x = y' and y' = x' boundaries are common, and
# dust masses at and below the detector's threshold
grid_points = st.integers(-8, 8).map(lambda k: k / 2)
entry_masses = st.sampled_from([DETECT_MASS_TOL, 0.5 * DETECT_MASS_TOL,
                                0.01, 0.25, 1.0])


@st.composite
def grid_couplings(draw):
    entries = draw(st.lists(st.tuples(grid_points, grid_points, entry_masses),
                            min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        # plant a pattern: A is y- < x' < x <= y' < y+, B is y- < y' <= x < x' < y+
        v = sorted(draw(st.lists(grid_points, min_size=5, max_size=5, unique=True)))
        y_m, y_p = v[0], v[4]
        if draw(st.booleans()):
            x_p, x = v[1], v[2]
            y_pr = v[2] if draw(st.booleans()) else v[3]
        else:
            x, x_p = v[2], v[3]
            y_pr = v[2] if draw(st.booleans()) else v[1]
        w = draw(st.tuples(entry_masses, entry_masses, entry_masses))
        entries += [(x, y_m, w[0]), (x, y_p, w[1]), (x_p, y_pr, w[2])]
    order = draw(st.permutations(range(len(entries))))
    return from_entries([entries[i] for i in order])


class TestDetectForbidden:
    def test_pattern_a_instantiation(self):
        pi = from_entries([(0.0, -2.0, 0.25), (0.0, 2.0, 0.25),
                           (-1.0, 1.0, 0.5)])
        found = detect_forbidden(pi)
        assert len(found) == 1
        cfg = found[0]
        assert cfg.pattern == "A"
        assert (cfg.x, cfg.y_minus, cfg.y_plus, cfg.x_prime, cfg.y_prime) == \
            (0.0, -2.0, 2.0, -1.0, 1.0)

    def test_pattern_b_instantiation(self):
        pi = from_entries([(0.0, -2.0, 0.25), (0.0, 2.0, 0.25),
                           (0.5, -1.0, 0.5)])
        found = detect_forbidden(pi)
        assert [c.pattern for c in found] == ["B"]

    def test_sweep_outputs_clean(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            mu, nu = separated_instance(rng)
            pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
            assert detect_forbidden(pi) == []

    def test_planted_swap_found(self):
        rng = np.random.default_rng(47)
        planted = 0
        while planted < 5:
            mu, nu = separated_instance(rng)
            interval = detect_separation(mu, nu)
            pi, _ = solve_sweep(mu, nu, interval)
            swapped = plant_cross_swap(pi, interval.a, interval.b)
            if swapped is None:
                continue
            assert detect_forbidden(swapped)
            planted += 1

    def test_mass_threshold_excludes_dust(self):
        pi = from_entries([(0.0, -2.0, 0.25), (0.0, 2.0, 1e-13),
                           (-1.0, 1.0, 0.5)])
        assert detect_forbidden(pi, tol=1e-10) == []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(grid_couplings())
    def test_equals_exhaustive_search(self, pi):
        assert detect_forbidden(pi) == exhaustive_forbidden(pi)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grid_couplings())
    def test_flags_exactly_rows_with_configurations(self, pi):
        keep = pi.masses > DETECT_MASS_TOL
        rows = np.unique(pi.xs)
        y_min = np.array([pi.ys[keep & (pi.xs == x)].min(initial=np.inf) for x in rows])
        y_max = np.array([pi.ys[keep & (pi.xs == x)].max(initial=-np.inf) for x in rows])
        flagged = _flag_rows(rows, y_min, y_max, pi.xs[keep], pi.ys[keep])
        with_config = {c.x for c in exhaustive_forbidden(pi)}
        assert flagged.tolist() == [x in with_config for x in rows.tolist()]

    def test_dust_at_threshold_ignored(self):
        entries = [(0.0, -2.0, 0.25), (0.0, 2.0, 0.25), (-1.0, 1.0, DETECT_MASS_TOL)]
        assert detect_forbidden(from_entries(entries)) == []
        entries[2] = (-1.0, 1.0, 2 * DETECT_MASS_TOL)
        assert len(detect_forbidden(from_entries(entries))) == 1

    def test_triangular_pair_at_scale_clean(self):
        mu = quantize(triangular_grid(64_000))
        nu = six_atom_symmetric_nu()
        pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
        assert detect_forbidden(pi) == []


class TestSwapGain:
    def test_hand_value(self):
        assert swap_gain(0.0, -2.0, 2.0, -1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_same_source_zero(self):
        assert swap_gain(0.5, -2.0, 2.0, 0.5, 1.0, 0.7) == 0.0

    def test_positive_on_random_patterns(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            y_m = float(rng.uniform(-3, 0))
            y_p = float(rng.uniform(0.5, 3))
            y_pr = float(rng.uniform(y_m + 0.05, y_p - 0.05))
            p = float(rng.uniform(0.05, 1.0))
            if rng.random() < 0.5:  # pattern A
                x = float(rng.uniform(y_m + 1e-6, y_pr))
                xp = float(rng.uniform(y_m + 1e-9, x))
                if not (y_m < xp < x <= y_pr):
                    continue
            else:  # pattern B
                x = float(rng.uniform(y_pr, y_p - 1e-6))
                xp = float(rng.uniform(x, y_p - 1e-9))
                if not (y_pr <= x < xp < y_p):
                    continue
            assert swap_gain(x, y_m, y_p, xp, y_pr, p) > 0.0

    def test_nonpositive_off_pattern_within_sides(self):
        # sweep x' over the same tail as x: the gain is positive exactly on
        # the forbidden side and nonpositive elsewhere
        rng = np.random.default_rng(59)
        for _ in range(50):
            y_m, y_pr, y_p = -2.0, float(rng.uniform(-0.5, 0.5)), 2.0
            p = float(rng.uniform(0.1, 1.0))
            xs = np.linspace(y_m + 1e-3, y_pr, 12)
            for x in xs:
                for xp in xs:
                    g = swap_gain(float(x), y_m, y_p, float(xp), y_pr, p)
                    if xp < x:
                        assert g > 0.0
                    elif xp > x:
                        assert g < 0.0
            xs = np.linspace(y_pr, y_p - 1e-3, 12)
            for x in xs:
                for xp in xs:
                    g = swap_gain(float(x), y_m, y_p, float(xp), y_pr, p)
                    if xp > x:
                        assert g > 0.0
                    elif xp < x:
                        assert g < 0.0

    def test_bad_ordering_rejected(self):
        with pytest.raises(InputError):
            swap_gain(0.0, 1.0, -1.0, 0.5, 0.0, 1.0)
        with pytest.raises(InputError):
            swap_gain(0.0, -1.0, 1.0, 0.5, 2.0, 1.0)
        with pytest.raises(InputError):
            swap_gain(0.0, -1.0, 1.0, 0.5, 0.0, 1.5)


def looped_decreasing(maps, tol=1e-12):
    """check_decreasing as a loop over consecutive rows."""
    for vals, fracs in ((maps.lower, maps.lower_frac),
                        (maps.upper, maps.upper_frac)):
        for i in range(len(vals) - 1):
            if vals[i + 1] > vals[i] + tol:
                return False
            if abs(vals[i + 1] - vals[i]) <= tol:
                if fracs[i] >= 1.0 - tol:
                    return False
                if fracs[i + 1] < fracs[i] - tol:
                    return False
    return True


class TestCheckDecreasing:
    def test_equals_row_loop(self):
        # steps straddle the tolerance, so repeats within tol are common
        tol = 1e-12
        steps = tol * np.array([0.0, 0.5, 1.0, 1.5, -0.5, -1.0, -1.5, 1e11])
        fracs = np.array([0.2, 0.5, 1.0 - 2 * tol, 1.0 - tol, 1.0 - 0.5 * tol, 1.0])
        rng = np.random.default_rng(83)
        verdicts = []
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            cols = [-1.0 - np.cumsum(rng.choice(steps, n)),
                    2.0 - np.cumsum(rng.choice(steps, n))]
            cols += [rng.choice(fracs, n) + rng.choice([0.0, -tol, tol], n)
                     for _ in range(2)]
            maps = TransportMaps(np.arange(n), *cols)
            verdicts.append(check_decreasing(maps))
            assert verdicts[-1] == looped_decreasing(maps)
        assert 0.1 < np.mean(verdicts) < 0.9

    def test_non_finite_maps_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InputError):
                TransportMaps([-0.5, 0.5], [-2.0, bad], [2.5, 2.0],
                              [0.4, 0.9], [0.5, 1.0])

    def test_sweep_outputs(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            mu, nu = separated_instance(rng)
            _, maps = solve_sweep(mu, nu, detect_separation(mu, nu))
            assert check_decreasing(maps)

    def test_increasing_upper_map_fails(self):
        maps = TransportMaps([-0.5, 0.5], [-2.0, -2.5], [2.0, 2.5],
                             [0.5, 1.0], [0.5, 1.0])
        assert not check_decreasing(maps)

    def test_repeat_after_exhaustion_fails(self):
        maps = TransportMaps([-0.5, 0.5], [-2.0, -2.0], [2.5, 2.0],
                             [1.0, 1.0], [0.5, 1.0])
        assert not check_decreasing(maps)

    def test_shared_partial_atom_ok(self):
        maps = TransportMaps([-0.5, 0.5], [-2.0, -2.0], [2.5, 2.0],
                             [0.4, 0.9], [0.5, 1.0])
        assert check_decreasing(maps)

    def test_single_row(self):
        maps = TransportMaps([0.0], [-2.0], [2.0], [1.0], [1.0])
        assert check_decreasing(maps)


class TestDeformation:
    def test_quadratic_profile_constant(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            inst = random_deformation_instance(rng, 2.0)
            assert curve_is_constant(deformation_curve(inst, 101))

    def test_hand_values_linear_profile(self):
        curve = deformation_curve(DeformationInstance(b=0.5, r=1.0, z=0.0, q=1.0), 101)
        assert curve[0][1] == pytest.approx(np.sqrt(1.25), abs=1e-12)
        assert curve[-1][1] == pytest.approx(1.0, abs=1e-12)
        assert curve[0][1] > curve[-1][1]

    def test_square_root_profile_decreasing(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            inst = random_deformation_instance(rng, 0.5)
            curve = deformation_curve(inst, 101)
            assert curve_is_strictly_decreasing(curve)

    def test_cubic_profile_not_decreasing(self):
        inst = DeformationInstance(b=0.7, r=1.3, z=0.4, q=3.0)
        curve = deformation_curve(inst, 101)
        assert not curve_is_strictly_decreasing(curve)
        assert not curve_is_constant(curve)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InputError):
            DeformationInstance(b=0.5, r=1.0, z=1.0, q=1.0)
        with pytest.raises(InputError):
            DeformationInstance(b=0.0, r=1.0, z=0.5, q=1.0)
        with pytest.raises(InputError):
            deformation_curve(DeformationInstance(b=0.5, r=1.0, z=0.0, q=1.0), 1)

    def test_points_stay_on_circle(self):
        inst = DeformationInstance(b=-0.8, r=1.5, z=-0.6, q=0.5)
        for t in np.linspace(0, 1, 11):
            zn, zs = inst.north_south(t)
            for h in (zn, zs):
                x = np.sqrt(inst.r ** 2 - h ** 2)
                assert np.hypot(x, h) == pytest.approx(inst.r, abs=1e-12)


class TestValidateCoupling:
    def test_sweep_output_clean(self):
        rng = np.random.default_rng(73)
        mu, nu = separated_instance(rng)
        pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
        assert max(validate_coupling(pi, mu, nu).to_dict().values()) <= 1e-9

    def test_perturbed_mass_flagged(self):
        mu = DiscreteMeasure([-0.5, 0.5], [0.5, 0.5])
        nu = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
        pi, _ = solve_sweep(mu, nu, detect_separation(mu, nu))
        w = pi.masses.copy()
        w[0] += 1e-3
        bad = Coupling(pi.xs, pi.ys, w)
        rep = validate_coupling(bad, mu, nu)
        assert rep.row_residual == pytest.approx(1e-3, abs=1e-12)
        assert rep.column_residual == pytest.approx(1e-3, abs=1e-12)
        assert max(rep.to_dict().values()) >= 1e-3

    def test_segment_reductions_equal_row_loops(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            mu, nu = separated_instance(rng)
            interval = detect_separation(mu, nu)
            pi, _ = solve_sweep(mu, nu, interval)
            pi = plant_cross_swap(pi, interval.a, interval.b) or pi
            rows = row_list(pi)
            bary = max(float(np.abs(ws @ ys - x * ws.sum()).max()) for x, ys, ws in rows)
            assert validate_coupling(pi, mu, nu).barycenter_residual == \
                pytest.approx(bary, abs=1e-15)
            expect = [(int((ys[ws > 1e-9 * ws.sum()] <= interval.a).sum()),
                       int((ys[ws > 1e-9 * ws.sum()] >= interval.b).sum()))
                      for _, ys, ws in rows]
            assert count_targets_per_side(pi, interval.a, interval.b) == expect

    def test_empty_coupling_reports_total_mass(self):
        mu = DiscreteMeasure([0.0], [1.0])
        empty = Coupling(np.zeros(0), np.zeros(0), np.zeros(0))
        rep = validate_coupling(empty, mu, mu)
        assert rep.row_residual == 1.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_entry_between_two_atoms_credited_once(self, dim):
        # the mu atoms are 2e-12 apart, so both survive the merge; the entry
        # midway is within tolerance of both but carries only half of mu
        def at(*xs):
            xs = np.asarray(xs)
            return xs if dim == 1 else np.column_stack([xs, np.zeros(len(xs))])

        mu = DiscreteMeasure(at(0.0, 2e-12), [0.5, 0.5], dim=dim)
        nu = DiscreteMeasure(at(1e-12), [1.0], dim=dim)
        pi = Coupling(at(1e-12), at(1e-12), [0.5], dim=dim)
        assert validate_coupling(pi, mu, nu).row_residual == 0.5

    def test_offset_entry_rejected_by_matrix_and_validator(self):
        mu = DiscreteMeasure([0.0], [1.0])
        nu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
        pi = from_entries([(5e-10, -1.0, 0.5), (5e-10, 1.0, 0.5)])
        with pytest.raises(InputError):
            coupling_matrix(pi, mu, nu)
        assert validate_coupling(pi, mu, nu).row_residual == 1.0
