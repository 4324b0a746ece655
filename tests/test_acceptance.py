"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with pytest -s or in the
captured output); a failing criterion fails its test. Expensive artifacts
(the 200-instance batch, quantized sweeps) are shared module-scoped
fixtures, built once.
"""

import time

import numpy as np
import pytest
from scipy import stats

from motkit import (DiscreteMeasure, RadialAtoms, RadialProfile,
                    check_decreasing, common_mass_split, convex_order_check,
                    cost, coupling_matrix, deformation_curve, detect_forbidden,
                    detect_separation, induce_1d, quantize, reflection_residual,
                    sample_lifted, solve_lp, solve_radial, uniqueness_probe,
                    DeformationInstance, random_deformation_instance)
from motkit.mot1d import solve_sweep
from instances import (not_in_order_instance, overlapping_instance,
                       plant_cross_swap, polyhedron_directions, ring_directions,
                       ring_instance, rotation_2d, separated_instance,
                       shell_atoms, shell_spread, six_atom_symmetric_nu,
                       triangular_grid)
from lemmas import count_targets_per_side, swap_gain

SEED = 20260811


@pytest.fixture(scope="module")
def batch():
    """200 seeded separated instances: sweep output plus LP optima at
    p in {0.5, 1.0}; records the wall time of all solves."""
    rng = np.random.default_rng(SEED)
    records = []
    t0 = time.time()
    for _ in range(200):
        mu, nu = separated_instance(rng)
        interval = detect_separation(mu, nu)
        assert interval is not None
        pi, maps = solve_sweep(mu, nu, interval)
        sweep_matrix = coupling_matrix(pi, mu, nu)
        lp = {}
        for p in (0.5, 1.0):
            sol = solve_lp(mu, nu, p)
            assert sol.status == "optimal", sol.message
            lp[p] = sol
        records.append({"mu": mu, "nu": nu, "interval": interval, "pi": pi,
                        "maps": maps, "matrix": sweep_matrix, "lp": lp})
    elapsed = time.time() - t0
    return {"records": records, "elapsed": elapsed}


@pytest.fixture(scope="module")
def overlap_batch():
    """50 seeded instances with overlapping atoms and their LP optima."""
    rng = np.random.default_rng(SEED + 1)
    out = []
    for _ in range(50):
        mu, nu = overlapping_instance(rng)
        p = float(rng.choice([0.5, 1.0]))
        sol = solve_lp(mu, nu, p)
        assert sol.status == "optimal", sol.message
        out.append((mu, nu, sol))
    return out


@pytest.fixture(scope="module")
def support_runs():
    """Quantized triangular mu against a 6-atom nu at three resolutions."""
    nu = six_atom_symmetric_nu()
    runs = {}
    for n in (250, 500, 1000):
        mu = quantize(triangular_grid(n))
        interval = detect_separation(mu, nu)
        pi, maps = solve_sweep(mu, nu, interval)
        runs[n] = (mu, nu, interval, pi, maps)
    return runs


def test_c01_sweep_lp_agreement(batch):
    worst_cost = 0.0
    worst_entry = 0.0
    for rec in batch["records"]:
        for p in (0.5, 1.0):
            sol = rec["lp"][p]
            worst_cost = max(worst_cost, abs(cost(rec["pi"], p) - sol.objective))
            worst_entry = max(worst_entry,
                              float(np.abs(rec["matrix"] - sol.matrix).max()))
    assert worst_cost <= 1e-8
    assert worst_entry <= 1e-7
    assert batch["elapsed"] <= 60.0
    print(f"PASS criterion 1: sweep-LP agreement on 200 instances "
          f"(cost gap {worst_cost:.2e}, entry gap {worst_entry:.2e}, "
          f"{batch['elapsed']:.1f}s)")


def test_c02_p_independence(batch):
    worst = 0.0
    for rec in batch["records"][:50]:
        mats = [rec["matrix"], rec["lp"][1.0].matrix]
        for p in (0.3, 0.6):
            sol = solve_lp(rec["mu"], rec["nu"], p)
            assert sol.status == "optimal"
            mats.append(sol.matrix)
        for m2 in mats[1:]:
            worst = max(worst, float(np.abs(mats[0] - m2).max()))
    assert worst <= 1e-7
    print(f"PASS criterion 2: p-independence across p in {{0.3, 0.6, 1.0}} "
          f"on 50 instances (entry gap {worst:.2e})")


def test_c03_stay_put(overlap_batch):
    worst = -np.inf
    for mu, nu, sol in overlap_batch:
        common, _, _ = common_mass_split(mu, nu)
        assert len(common) > 0
        for pos, m_common in zip(common.positions, common.masses):
            i = int(np.argmin(np.abs(mu.positions - pos)))
            j = int(np.argmin(np.abs(nu.positions - pos)))
            shortfall = m_common - sol.matrix[i, j]
            worst = max(worst, shortfall)
            assert sol.matrix[i, j] >= m_common - 1e-9
    print(f"PASS criterion 3: common mass stays put on 50 overlapping "
          f"instances (worst shortfall {worst:.2e})")


def test_c04_two_point_support(support_runs):
    fractions = {}
    for n, (mu, nu, interval, pi, _) in support_runs.items():
        counts = count_targets_per_side(pi, interval.a, interval.b)
        assert all(lo <= 2 and hi <= 2 for lo, hi in counts), n
        multi = sum(1 for lo, hi in counts if lo > 1 or hi > 1)
        ones = sum(1 for lo, hi in counts if lo == 1 and hi == 1)
        fractions[n] = multi / len(counts)
        if n == 500:
            assert ones / len(counts) >= 0.90
    assert fractions[1000] < fractions[250]
    print(f"PASS criterion 4: two-point support (multi-target fraction "
          f"{fractions[250]:.4f} at n=250 -> {fractions[1000]:.4f} at n=1000)")


def test_c05_decreasing_maps(batch):
    for rec in batch["records"]:
        assert check_decreasing(rec["maps"])
    print("PASS criterion 5: frontier maps nonincreasing on all 200 sweep outputs")


def test_c06_monotonicity_certificate(batch, overlap_batch, support_runs):
    # all optimal couplings of criteria 1-4 are clean
    checked = 0
    for rec in batch["records"]:
        assert detect_forbidden(rec["pi"]) == []
        for p in (0.5, 1.0):
            assert detect_forbidden(rec["lp"][p].coupling) == []
        checked += 3
    for _, _, sol in overlap_batch:
        assert detect_forbidden(sol.coupling) == []
        checked += 1
    for n, (_, _, _, pi, _) in support_runs.items():
        assert detect_forbidden(pi) == []
        checked += 1

    # planted mass swaps must be detected
    rng = np.random.default_rng(SEED + 2)
    planted = 0
    while planted < 20:
        mu, nu = separated_instance(rng)
        interval = detect_separation(mu, nu)
        pi, _ = solve_sweep(mu, nu, interval)
        swapped = plant_cross_swap(pi, interval.a, interval.b)
        if swapped is None:
            continue
        assert detect_forbidden(swapped) != []
        planted += 1

    # randomized forbidden-pattern instances have strictly positive gain
    rng = np.random.default_rng(SEED + 3)
    tested = 0
    while tested < 10_000:
        y_m = float(rng.uniform(-3.0, 0.0))
        y_p = float(rng.uniform(0.5, 3.0))
        y_pr = float(rng.uniform(y_m + 0.05, y_p - 0.05))
        p = float(rng.uniform(0.05, 1.0))
        if rng.random() < 0.5:
            x = float(rng.uniform(y_m + 1e-6, y_pr))
            xp = float(rng.uniform(y_m + 1e-9, x))
            if not (y_m < xp < x <= y_pr):
                continue
        else:
            x = float(rng.uniform(y_pr, y_p - 1e-6))
            xp = float(rng.uniform(x, y_p - 1e-9))
            if not (y_pr <= x < xp < y_p):
                continue
        assert swap_gain(x, y_m, y_p, xp, y_pr, p) > 0.0
        tested += 1
    print(f"PASS criterion 6: no forbidden configurations in {checked} optimal "
          f"couplings; 20 planted swaps detected; 10^4 pattern gains positive")


def test_c07_deformation_monotonicity():
    rng = np.random.default_rng(SEED + 4)
    for q in (0.5, 1.0, 1.5):
        for _ in range(100):
            inst = random_deformation_instance(rng, q)
            vals = np.array([c for _, c in deformation_curve(inst, 101)])
            assert np.all(np.diff(vals) < 0.0), (q, inst)
            assert vals[0] > vals[-1]
    for _ in range(20):
        inst = random_deformation_instance(rng, 2.0)
        vals = np.array([c for _, c in deformation_curve(inst, 101)])
        assert vals.max() - vals.min() <= 1e-12
    hand = deformation_curve(DeformationInstance(b=0.5, r=1.0, z=0.0, q=1.0), 101)
    assert abs(hand[0][1] - np.sqrt(1.25)) <= 1e-12
    assert abs(hand[-1][1] - 1.0) <= 1e-12
    print("PASS criterion 7: deformation curves strictly decreasing for "
          "q in {0.5, 1.0, 1.5}, constant at q=2, hand values reproduced")


def test_c08_radial_reduction():
    disk = RadialProfile(2, np.linspace(0.0, 1.0, 51), np.full(50, 1.0 / np.pi))
    g2 = induce_1d(disk)
    assert abs(g2.total_mass() - 1.0) <= 1e-10
    assert np.abs(g2.values - np.abs(g2.midpoints())).max() <= 1e-10

    ball = RadialProfile(3, np.linspace(0.0, 1.0, 41), np.full(40, 3.0 / (4 * np.pi)))
    g3 = induce_1d(ball)
    assert abs(g3.total_mass() - 1.0) <= 1e-10
    edges = np.linspace(-1.0, 1.0, g3.n + 1)
    anti = lambda s: abs(s) ** 3 / 2.0
    expect = np.array([(anti(l) + anti(u)) / (u - l) if l < 0 < u
                       else abs(anti(u) - anti(l)) / (u - l)
                       for l, u in zip(edges[:-1], edges[1:])])
    assert np.abs(g3.values - expect).max() <= 1e-10

    pairs = [
        (disk, RadialProfile(2, np.linspace(0.0, 2.0, 51), np.full(50, 1.0 / (4 * np.pi)))),
        (disk, RadialProfile(2, [0.0, 1.5, 2.5], [0.0, 1.0 / (np.pi * 4.0)])),
        (ball, RadialProfile(3, np.linspace(0.0, 1.7, 41),
                             np.full(40, 3.0 / (4 * np.pi * 1.7 ** 3)))),
    ]
    for mu_prof, nu_prof in pairs:
        q_mu = quantize(induce_1d(mu_prof, 400))
        q_nu = quantize(induce_1d(nu_prof, 400))
        assert convex_order_check(q_mu, q_nu, tol=1e-8).in_order
    print("PASS criterion 8: radial reduction exact for disk and ball; "
          "induced pairs in convex order at n=400")


def test_c09_lift_consistency():
    disk = RadialProfile(2, np.linspace(0.0, 1.0, 51), np.full(50, 1.0 / np.pi))
    sphere = RadialAtoms(2, [2.0], [1.0])
    lifted, c1 = solve_radial(disk, sphere, 1.0, n=400)
    assert abs(lifted.cost_ddim(1.0) - c1) <= 1e-9
    assert reflection_residual(lifted.base) <= 1e-10

    n = 100_000
    x, y = sample_lifted(lifted, n, seed=SEED)
    radii = np.linalg.norm(x, axis=1)
    edges = np.linspace(0.0, 1.0000001, 9)
    expect, _ = np.histogram(np.abs(lifted.base.xs), bins=edges,
                             weights=lifted.base.masses)
    got, _ = np.histogram(radii, bins=edges)
    chi = stats.chisquare(got, expect / expect.sum() * n)
    assert chi.pvalue > 0.001
    delta = y - x
    se = delta.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(delta.mean(axis=0)) <= 4.0 * se)
    print(f"PASS criterion 9: lift consistent (cost gap 0, chi2 p={chi.pvalue:.3f}, "
          f"martingale means within 4 SE, reflection residual "
          f"{reflection_residual(lifted.base):.2e})")


def test_c10_rotation_invariance():
    mu, nu = ring_instance(n_fold=8)
    base = solve_lp(mu, nu, 1.0)
    assert base.status == "optimal"
    worst = 0.0
    for k in range(1, 17):
        M = rotation_2d(2.0 * np.pi * k / 16.0)
        mur = DiscreteMeasure(mu.positions @ M.T, mu.masses, dim=2)
        nur = DiscreteMeasure(nu.positions @ M.T, nu.masses, dim=2)
        sol = solve_lp(mur, nur, 1.0)
        assert sol.status == "optimal"
        worst = max(worst, abs(sol.objective - base.objective))
    assert worst <= 1e-9
    print(f"PASS criterion 10: LP cost invariant under 16 rotations "
          f"(worst gap {worst:.2e})")


def test_c11_infeasibility_iff_order_failure():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(50):
        mu, nu = not_in_order_instance(rng)
        report = convex_order_check(mu, nu)
        sol = solve_lp(mu, nu, 1.0)
        assert not report.in_order
        assert sol.status == "infeasible"
    print("PASS criterion 11: LP infeasibility and convex-order failure agree "
          "on 50 negative instances")


def test_c12_theorem_in_rd():
    # the paper's claim checked in R^d, not only after the reduction: for
    # radially symmetric shells and 0 < p <= 1 the d-dimensional LP optimum
    # is unique, costs what the 1-D radial solve costs, and moves mass only
    # along the line through each source atom
    rng = np.random.default_rng(SEED + 12)
    direction_sets = [ring_directions(k) for k in (4, 8, 16)] + [
        polyhedron_directions(name)
        for name in ("octahedron", "cube", "icosahedron")]
    worst_gap = worst_off = 0.0
    cases = 0
    for directions in direction_sets:
        for _ in range(3):
            mu_shells, nu_shells = shell_spread(rng, directions.shape[1])
            mu, nu = shell_atoms(directions, mu_shells), shell_atoms(directions, nu_shells)
            for p in (0.5, 1.0):
                sol = solve_lp(mu, nu, p)
                assert sol.status == "optimal", sol.message
                _, radial_cost = solve_radial(mu_shells, nu_shells, p)
                gap = abs(sol.objective - radial_cost) / radial_cost
                assert gap <= 1e-12
                pi = sol.coupling
                ray = pi.xs / np.linalg.norm(pi.xs, axis=1, keepdims=True)
                along = np.sum(pi.ys * ray, axis=1, keepdims=True) * ray
                off = float(np.linalg.norm(pi.ys - along, axis=1).max())
                assert off <= 1e-9
                assert uniqueness_probe(mu, nu, p)
                worst_gap, worst_off = max(worst_gap, gap), max(worst_off, off)
                cases += 1
    print(f"PASS criterion 12: d-dimensional LP unique, on rays and equal to the "
          f"radial cost on {cases} shell pairs (worst gap {worst_gap:.1e}, "
          f"off-ray {worst_off:.1e})")
