"""Seeded instance generators, job plans and independent LP references.

A job is the sequence of motkit CLI calls a user makes on one instance. Each
workload builds a pool of instances from the run seed; the worker cycles
through the pool in a closed loop. Instance sizes are fixed per workload so
that the seed changes positions and masses, not the amount of work.

Everything here runs in the parent process, outside the timed region, and
depends only on numpy and (for the LP references) scipy, never on motkit.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-1d", "lp-oracle", "radial-lift")

# sweep-1d: a grid density with SWEEP_CELLS cells inside (a, b) against
# SWEEP_POOL atoms on each tail; every tail atom receives mass from exactly
# SWEEP_CELLS / SWEEP_POOL two-point spreads, so len(nu) is fixed.
SWEEP_INSTANCES = 10
SWEEP_CELLS = 1500
SWEEP_POOL = 750

# lp-oracle: m source atoms against 2m target atoms inside and around the
# source hull. Probe jobs (the smallest size) add lp.uniqueness_probe; the
# main size is picked so both job kinds take about the same time, which keeps
# the job-time distribution in one cluster.
LP_PROBE_SIZE = 20
LP_PROBE_INSTANCES = 2
LP_MAIN_SIZE = 26
LP_MAIN_INSTANCES = 8

# radial-lift: ball profiles against spherical shells (separated after the
# reduction, so the sweep runs) plus a minority of overlapping profile pairs
# at small n (the LP-plus-symmetrize path). The LP jobs are the faster ones,
# so they sit below both the median and the tail percentile.
RADIAL_BALL_INSTANCES = 10
RADIAL_BALL_N = 3000
RADIAL_SHELLS = 8
RADIAL_OVERLAP_INSTANCES = 2
RADIAL_OVERLAP_N = 90
RADIAL_SAMPLES = 100_000

# Reference ladder, run by traced runs only: the triangular grid against six
# atoms, and single LP solves of growing size. The instances are fixed (they
# do not depend on the run seed) so that every traced run measures the same
# work and the ladder shows scaling.
LADDER_TRI = (1000, 8000)
LADDER_LP = (20, 40, 60)
LADDER_SEED = 20140312

# Correctness bounds, checked by the parent on every job.
LP_COST_RTOL = 1e-7          # motkit LP objective vs scipy HiGHS
RADIAL_COST_RTOL = 1e-12     # cost_1d vs cost_ddim of solve-radial
MC_MEAN_MAX_SE = 5.0         # |mean(Y - X)| per coordinate, in standard errors
MC_ANNULUS_MAX_GAP = 0.01    # sampled vs exact radius histogram, per bin


@dataclass
class Job:
    """One instance and the CLI calls made on it.

    steps: list of {"label": str, "argv": [...]} for CLI calls, or
    {"label": "probe", "pair": path} for lp.uniqueness_probe.
    outputs: files whose bytes enter the job digest.
    expect: what the parent checks (exit codes and reference values).
    """

    id: str
    kind: str
    steps: list
    outputs: list
    expect: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int, salt: int = 0) -> np.random.Generator:
    """Generator determined by (workload, seed, salt) only."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), salt])


def _atoms(pos, mass) -> list:
    return [[float(x), float(w)] for x, w in zip(pos, mass)]


def _write_json(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def grid_midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    """Cell midpoints in the centered form motkit quantizes to, so that the
    generated nu carries exactly the quantized mu's mean."""
    center = 0.5 * (lo + hi)
    offsets = 2 * np.arange(n) + 1 - n
    return center + offsets * ((hi - lo) / (2 * n))


# ---------------------------------------------------------------------------
# sweep-1d
# ---------------------------------------------------------------------------

def sweep_pair(rng: np.random.Generator, cells: int, pool: int) -> dict:
    """Separated pair: smooth grid density inside (a, b), nu on both tails
    built from two-point mean-preserving spreads of the quantized mu."""
    a = -rng.uniform(0.5, 1.5)
    b = rng.uniform(0.5, 1.5)
    lo, hi = a + 0.01 * (b - a), b - 0.01 * (b - a)
    mids = grid_midpoints(lo, hi, cells)
    vals = np.full(cells, 0.2)
    for _ in range(3):
        c = rng.uniform(lo, hi)
        s = rng.uniform(0.05, 0.3) * (hi - lo)
        vals += rng.uniform(0.5, 2.0) * np.exp(-0.5 * ((mids - c) / s) ** 2)
    width = (hi - lo) / cells
    vals /= vals.sum() * width
    w = vals * width
    lo_pool = rng.uniform(a - 2.5, a - 0.02, pool)
    hi_pool = rng.uniform(b + 0.02, b + 2.5, pool)
    li = rng.permutation(np.arange(cells) % pool)
    hj = rng.permutation(np.arange(cells) % pool)
    L, H = lo_pool[li], hi_pool[hj]
    t = (H - mids) / (H - L)
    nu_pos = np.concatenate([lo_pool, hi_pool])
    nu_w = np.concatenate([np.bincount(li, weights=w * t, minlength=pool),
                           np.bincount(hj, weights=w * (1 - t), minlength=pool)])
    return {"mu": {"type": "grid", "lo": lo, "hi": hi, "n": cells,
                   "values": vals.tolist()},
            "nu": {"type": "discrete", "atoms": _atoms(nu_pos, nu_w)}}


def sweep_job(jid: str, d: Path, pair: str, kind: str = "sweep") -> Job:
    out = {k: str(d / f) for k, f in (("order", "order.json"), ("coupling", "coupling.json"),
                                      ("maps", "maps.csv"), ("verify", "verify.json"))}
    steps = [
        {"label": "check-order", "argv": ["check-order", pair, "--out", out["order"]]},
        {"label": "solve", "argv": ["solve", pair, "--out", out["coupling"],
                                    "--maps-csv", out["maps"]]},
        {"label": "verify", "argv": ["verify", "--coupling", out["coupling"],
                                     "--marginals", pair, "--out", out["verify"]]},
    ]
    expect = {"rc": {"check-order": 0, "solve": 0, "verify": 0}}
    return Job(jid, kind, steps, list(out.values()), expect)


# ---------------------------------------------------------------------------
# lp-oracle
# ---------------------------------------------------------------------------

def lp_measures(rng: np.random.Generator, m: int):
    """m source atoms on [-1, 1]; each splits to its own pair of targets,
    so nu has 2m atoms, many inside the source hull (not separated)."""
    x = rng.uniform(-1.0, 1.0, m)
    w = rng.uniform(0.2, 1.0, m)
    w /= w.sum()
    u = rng.uniform(0.05, 1.0, m)
    v = rng.uniform(0.05, 1.0, m)
    t = v / (u + v)
    nu_pos = np.concatenate([x - u, x + v])
    nu_w = np.concatenate([w * t, w * (1 - t)])
    if not np.any((nu_pos > x.min()) & (nu_pos < x.max())):
        raise RuntimeError("generated LP instance is separated")
    return (x, w), (nu_pos, nu_w)


def _pair_doc(mu, nu) -> dict:
    return {"mu": {"type": "discrete", "atoms": _atoms(*mu)},
            "nu": {"type": "discrete", "atoms": _atoms(*nu)}}


def mot_lp_reference(mu, nu, p: float = 1.0):
    """Optimal min and max objectives of the martingale transport LP, and
    whether the role-swapped pair is infeasible, by scipy's HiGHS."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    def solve(src, tgt, sign):
        (x, w), (y, v) = src, tgt
        m, n = len(x), len(y)
        idx = np.arange(m * n).reshape(m, n)
        rows = np.concatenate([np.repeat(np.arange(m), n),
                               m + np.tile(np.arange(n), m),
                               m + n + np.repeat(np.arange(m), n)])
        cols = np.concatenate([idx.ravel(), idx.ravel(), idx.ravel()])
        vals = np.concatenate([np.ones(m * n), np.ones(m * n), np.tile(y, m)])
        A = coo_matrix((vals, (rows, cols)), shape=(2 * m + n, m * n)).tocsr()
        b = np.concatenate([w, v, x * w])
        c = (np.abs(x[:, None] - y[None, :]) ** p).ravel()
        res = linprog(sign * c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        return res.status, (sign * res.fun if res.status == 0 else None)

    st_min, lo = solve(mu, nu, 1.0)
    st_max, hi = solve(mu, nu, -1.0)
    st_swap, _ = solve(nu, mu, 1.0)
    if st_min != 0 or st_max != 0:
        raise RuntimeError("HiGHS failed on a generated feasible instance")
    return {"min": lo, "max": hi, "swap_infeasible": st_swap == 2}


def lp_job(jid: str, d: Path, m: int, rng: np.random.Generator, probe: bool,
           kind: str = "lp") -> Job:
    mu, nu = lp_measures(rng, m)
    pair = _write_json(d / "pair.json", _pair_doc(mu, nu))
    swapped = _write_json(d / "swapped.json", _pair_doc(nu, mu))
    ref = mot_lp_reference(mu, nu)
    out = {k: str(d / f) for k, f in (("coupling", "coupling.json"),
                                      ("verify", "verify.json"), ("oracle", "oracle.json"))}
    steps = [
        {"label": "solve", "argv": ["solve", pair, "--out", out["coupling"]]},
        {"label": "verify", "argv": ["verify", "--coupling", out["coupling"],
                                     "--marginals", pair, "--out", out["verify"]]},
        {"label": "oracle-max", "argv": ["oracle", pair, "--sense", "max",
                                         "--out", out["oracle"]]},
        {"label": "oracle-swap", "argv": ["oracle", swapped]},
    ]
    if probe:
        steps.append({"label": "probe", "pair": pair})
    expect = {"rc": {"solve": 0, "verify": 0, "oracle-max": 0,
                     "oracle-swap": 1 if ref["swap_infeasible"] else 0},
              "cost": {"solve": ref["min"], "oracle-max": ref["max"]}}
    return Job(jid, kind, steps, list(out.values()), expect)


# ---------------------------------------------------------------------------
# radial-lift
# ---------------------------------------------------------------------------

def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _ball_mass(d: int, a: float, b: float) -> float:
    """Volume of the shell a <= |x| <= b in R^d."""
    return _sphere_area(d) * (b ** d - a ** d) / d


def radial_ball_shells(rng: np.random.Generator, d: int) -> dict:
    """Piecewise-constant ball profile on |x| <= 1 against spherical shells
    outside it; every shell lies beyond the ball, so the order holds."""
    r = np.linspace(0.0, 1.0, 11)
    f = rng.uniform(0.5, 1.5, 10)
    mass = sum(fk * _ball_mass(d, r[k], r[k + 1]) for k, fk in enumerate(f))
    radii = np.sort(rng.uniform(1.2, 3.0, RADIAL_SHELLS))
    w = rng.uniform(0.5, 1.5, RADIAL_SHELLS)
    w *= mass / w.sum()
    return {"dim": d,
            "mu": {"type": "radial-grid", "r": r.tolist(), "f": f.tolist()},
            "nu": {"type": "radial-atoms", "atoms": _atoms(radii, w)}}


def radial_overlap(rng: np.random.Generator, d: int) -> dict:
    """Overlapping profiles: mu uniform on the unit ball, nu keeps a share
    alpha near the centre and moves the rest to 1 <= |x| <= 1.5. The induced
    residuals interleave, so the reduction is not separated."""
    alpha = rng.uniform(0.3, 0.45)
    r = [0.0, 0.5, 1.0, 1.5]
    f_mu = [1.0 / _ball_mass(d, 0, 1)] * 2 + [0.0]
    f_nu = [alpha / _ball_mass(d, 0, 0.5), 0.0, (1 - alpha) / _ball_mass(d, 1, 1.5)]
    return {"dim": d,
            "mu": {"type": "radial-grid", "r": r, "f": f_mu},
            "nu": {"type": "radial-grid", "r": r, "f": f_nu}}


def radial_job(jid: str, d: Path, doc: dict, n: int, sample_seed: int,
               kind: str) -> Job:
    spec = _write_json(d / "radial.json", doc)
    out = {"lift": str(d / "lift.json"), "induced": str(d / "induced.csv")}
    steps = [{"label": "solve-radial",
              "argv": ["solve-radial", spec, "--n", str(n),
                       "--samples", str(RADIAL_SAMPLES), "--seed", str(sample_seed),
                       "--out", out["lift"], "--induced-csv", out["induced"]]}]
    expect = {"rc": {"solve-radial": 0}, "samples": RADIAL_SAMPLES}
    return Job(jid, kind, steps, list(out.values()), expect)


# ---------------------------------------------------------------------------
# Pools and ladder
# ---------------------------------------------------------------------------

def build_pool(workload: str, seed: int, work: Path) -> list:
    """The run's instance pool, written under `work`, in cycling order."""
    jobs = []
    if workload == "sweep-1d":
        for i in range(SWEEP_INSTANCES):
            d = work / f"i{i:02d}"
            pair = _write_json(d / "pair.json",
                               sweep_pair(rng_for(workload, seed, i), SWEEP_CELLS, SWEEP_POOL))
            jobs.append(sweep_job(f"i{i:02d}", d, pair))
    elif workload == "lp-oracle":
        sizes = [LP_PROBE_SIZE] * LP_PROBE_INSTANCES + [LP_MAIN_SIZE] * LP_MAIN_INSTANCES
        for i, m in enumerate(sizes):
            probe = m == LP_PROBE_SIZE
            jobs.append(lp_job(f"i{i:02d}", work / f"i{i:02d}", m,
                               rng_for(workload, seed, i), probe,
                               "lp-probe" if probe else "lp"))
    elif workload == "radial-lift":
        for i in range(RADIAL_BALL_INSTANCES + RADIAL_OVERLAP_INSTANCES):
            rng = rng_for(workload, seed, i)
            dim = 2 + i % 2
            if i < RADIAL_BALL_INSTANCES:
                doc, n, kind = radial_ball_shells(rng, dim), RADIAL_BALL_N, "radial-sweep"
            else:
                doc, n, kind = radial_overlap(rng, dim), RADIAL_OVERLAP_N, "radial-lp"
            jobs.append(radial_job(f"i{i:02d}", work / f"i{i:02d}", doc, n,
                                   int(rng.integers(2 ** 31)), kind))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return _interleave(jobs)


def _interleave(jobs: list) -> list:
    """Spread each job kind evenly over the cycle, so that any stretch of a
    run sees the workload's mix and not a block of one kind."""
    groups = {}
    for job in jobs:
        groups.setdefault(job.kind, []).append(job)
    keyed = [((rank + 0.5) / len(group), job.id, job)
             for group in groups.values() for rank, job in enumerate(group)]
    return [job for _, _, job in sorted(keyed, key=lambda k: k[:2])]


def triangular_pair(n: int) -> dict:
    """V-shaped density |r| on [-1, 1] (n cells) against six symmetric atoms
    outside [-1, 1]."""
    vals = np.abs(grid_midpoints(-1.0, 1.0, n))
    nu = ([-2.5, -2.0, -1.5, 1.5, 2.0, 2.5], [0.15, 0.2, 0.15, 0.15, 0.2, 0.15])
    return {"mu": {"type": "grid", "lo": -1.0, "hi": 1.0, "n": n, "values": vals.tolist()},
            "nu": {"type": "discrete", "atoms": _atoms(*nu)}}


def build_ladder(workload: str, work: Path) -> list:
    """Reference instances for the traced run of the workload whose layer
    they scale: the triangular sweep for sweep-1d, single LP solves for
    lp-oracle."""
    jobs = []
    if workload == "sweep-1d":
        for n in LADDER_TRI:
            d = work / f"tri{n}"
            pair = _write_json(d / "pair.json", triangular_pair(n))
            job = sweep_job(f"tri{n}", d, pair, kind="ladder")
            job.steps = job.steps[1:]          # solve and verify only
            jobs.append(job)
    elif workload == "lp-oracle":
        rng = np.random.default_rng(LADDER_SEED)
        for m in LADDER_LP:
            job = lp_job(f"lp{m}x{2 * m}", work / f"lp{m}x{2 * m}", m, rng,
                         probe=False, kind="ladder")
            job.steps = job.steps[:1]          # one solve per size
            jobs.append(job)
    return jobs
