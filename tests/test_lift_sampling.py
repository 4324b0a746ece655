"""`radial.sample_lifted` and `radial.summarize_lift` against the code they
replaced.

The oracles below are the sampler and the `solve-radial --samples` summary
as they were before the guide table and the blocks of LIFT_CHUNK rows:
`Generator.choice` with `p=` for the entries, one normal draw of all the
directions, `np.linalg.norm` for the directions and the radii, and the
axis-0 `mean` and `std` for the martingale check. Copied apart from the
names. Every draw and both printed figures must equal the oracle's bit for
bit.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motkit import Coupling
from motkit.cli import main
from motkit.radial import (LIFT_CHUNK, LiftedCoupling, RadialProfile, lift_buffers,
                           lift_draws, load_radial_pair, row_norms, sample_lifted,
                           solve_radial, summarize_lift)


def lift_summary(lc, count, seed):
    """The summary `solve-radial --samples count --seed seed` prints."""
    u, z = lift_buffers(count, lc.dim)
    lift_draws(seed, u, z)
    return summarize_lift(lc, u, z)


def oracle_sample_lifted(lc, count, seed):
    base = lc.base
    rng = np.random.default_rng(seed)
    weights = base.masses / base.masses.sum()
    idx = rng.choice(len(base), size=count, p=weights)
    u = rng.normal(size=(count, lc.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = base.xs[idx, None] * u
    y = base.ys[idx, None] * u
    return x, y


def oracle_summary(base, x, y, samples):
    delta = y - x
    se = delta.std(axis=0, ddof=1) / np.sqrt(samples)
    mean_in_se = np.abs(delta.mean(axis=0)) / np.where(se > 0, se, 1.0)
    radii = np.linalg.norm(x, axis=1)
    edges = np.linspace(0.0, float(np.abs(base.xs).max()) * 1.0001, 9)
    expect, _ = np.histogram(np.abs(base.xs), bins=edges, weights=base.masses)
    expect = expect / base.total_mass()
    got, _ = np.histogram(radii, bins=edges)
    got = got / samples
    return {
        "samples": samples,
        "martingale_mean_max_se": float(mean_in_se.max()),
        "annulus_max_gap": float(np.abs(got - expect).max()),
    }


# how the masses spread: log-uniform over 1e-18..1, all equal, or one heavy
# entry among entries of 1e-18 (whole guide cells then hold many entries)
MASS_SHAPES = ("spread", "equal", "one-heavy")


def lifted_coupling(dim, entries, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "spread":
        masses = 10.0 ** rng.uniform(-18.0, 0.0, entries)
    elif shape == "equal":
        masses = np.full(entries, 1.0 / entries)
    else:
        masses = np.full(entries, 1e-18)
        masses[rng.integers(entries)] = 1.0
    xs = rng.uniform(-3.0, 3.0, entries)
    ys = xs + rng.normal(size=entries)
    return LiftedCoupling(Coupling(xs, ys, masses), dim)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dim=st.sampled_from([2, 3, 4]), entries=st.integers(1, 7000),
           shape=st.sampled_from(MASS_SHAPES), count=st.integers(2, 100_000),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(dim=2, entries=1, shape="spread", count=2, seed=0)
    @example(dim=4, entries=7000, shape="spread", count=100_000, seed=1)
    @example(dim=3, entries=7000, shape="one-heavy", count=100_000, seed=2)
    # around the edges of the blocks the draws and the summary are taken in
    @example(dim=3, entries=50, shape="spread", count=LIFT_CHUNK - 1, seed=3)
    @example(dim=2, entries=50, shape="equal", count=LIFT_CHUNK, seed=4)
    @example(dim=4, entries=50, shape="one-heavy", count=LIFT_CHUNK + 1, seed=5)
    @example(dim=2, entries=50, shape="spread", count=LIFT_CHUNK - 1, seed=7)
    @example(dim=2, entries=50, shape="one-heavy", count=LIFT_CHUNK + 1, seed=8)
    @example(dim=3, entries=50, shape="equal", count=LIFT_CHUNK + 1, seed=9)
    # from 8 columns on the directions are normalized by np.linalg.norm
    @example(dim=9, entries=50, shape="spread", count=LIFT_CHUNK - 1, seed=10)
    @example(dim=9, entries=50, shape="equal", count=LIFT_CHUNK + 1, seed=11)
    @example(dim=3, entries=3000, shape="spread", count=3 * LIFT_CHUNK + 5, seed=6)
    def test_draws_and_summary_equal(self, dim, entries, shape, count, seed):
        lc = lifted_coupling(dim, entries, shape, seed)
        x, y = sample_lifted(lc, count, seed)
        ox, oy = oracle_sample_lifted(lc, count, seed)
        assert np.array_equal(x, ox) and np.array_equal(y, oy)
        summary = lift_summary(lc, count, seed)
        expected = oracle_summary(lc.base, ox, oy, count)
        # equal as floats is not enough: -0.0 == 0.0, so compare the printed line
        assert json.dumps(summary, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(2, 10), rows=st.integers(1, 500), seed=st.integers(0, 1000))
    def test_row_norms(self, dim, rows, seed):
        # from 8 columns on the row norms come from np.linalg.norm itself
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rows, dim)) * 10.0 ** rng.uniform(-100.0, 100.0)
        assert np.array_equal(row_norms(a), np.linalg.norm(a, axis=1))

    def test_summary_keeps_one_array_of_draws(self):
        """The summary keeps the uniforms and the normals whole, the normals
        becoming y - x, and the rest one block at a time: 8.6 MB at this
        count, where keeping x, y and the deviations whole took 25.6 MB."""
        count, dim = 200_000, 3
        lc = lifted_coupling(dim, 7000, "spread", 7)
        tracemalloc.start()
        try:
            lift_summary(lc, count, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < count * (dim + 1) * 8 + 4 * 2 ** 20

    def test_solve_radial_stdout(self, tmp_path):
        """One `solve-radial --samples` call prints the oracle's bytes."""
        r, f = list(np.linspace(0.0, 1.0, 11)), list(np.linspace(0.5, 1.5, 10))
        mass = RadialProfile(3, r, f).total_mass()
        doc = {"dim": 3, "mu": {"type": "radial-grid", "r": r, "f": f},
               "nu": {"type": "radial-atoms",
                      "atoms": [[1.5, 0.625 * mass], [2.5, 0.375 * mass]]}}
        spec = tmp_path / "radial.json"
        spec.write_text(json.dumps(doc))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["solve-radial", str(spec), "--n", "300",
                         "--samples", "50000", "--seed", "17"]) == 0
        dim, mu, nu = load_radial_pair(str(spec))
        lifted, c1 = solve_radial(mu, nu, 1.0, n=300)
        x, y = oracle_sample_lifted(lifted, 50000, 17)
        expected = (f"cost_1d={c1!r} cost_ddim={lifted.cost_ddim(1.0)!r}\n"
                    + json.dumps(oracle_summary(lifted.base, x, y, 50000), sort_keys=True)
                    + "\n")
        assert out.getvalue() == expected
