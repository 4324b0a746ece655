"""Compare two checkouts of motkit on the benchmark and on a verify ladder.

    python3 tools/compare_bench.py --parent PARENT_DIR --change CHANGE_DIR \
        --seed 7 --out BENCH.json

Each checkout is a directory holding `src/` and `perfbench/`. The script runs
`perfbench/run.py --workload W --trace 0` for each workload W of the
benchmark, each in its own process, at the benchmark's run length in
each checkout for PAIRS pairs, alternating which side runs first, and reports
every end-to-end metric's median and quartiles per side, with the number of
pairs the change won. One process per workload, because on Linux a child's
peak RSS starts from its parent's: run from one `--workload all` process,
radial-lift would report the peak lp-oracle's scipy references left in
`run.py`. The ladder then takes the benchmark's triangular pair
at each size in LADDER and, per side, times `motkit.solve` and
`detect_forbidden` in-process and the `verify` command as a fresh process,
REPEATS times each, reporting medians. The LP ladder takes perfbench's
`lp_measures` pair of m source atoms, drawn at its LADDER_SEED, at each m
in LP_LADDER and, per side, times `solve_lp` in-process in both senses,
REPEATS times each, reporting the median, the pivots and the objective's
`float.hex`, so that equal pivots and objectives show in the record. Both
sides run with one BLAS thread. Pass a seed not used while writing the
change.

The script goes away once `perfbench/run.py` writes BENCH_<pr>.json itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HIGHER_IS_BETTER = {"1/s"}
PAIRS = 10
SECONDS = 30  # BENCHMARK.json run_seconds
WORKLOADS = ("sweep-1d", "lp-oracle", "radial-lift")  # BENCHMARK.json workloads
LADDER = (1000, 8000, 64000)
LP_LADDER = (26, 60, 120)
REPEATS = 3

# Runs inside a checkout: times motkit.solve on the triangular pair and
# detect_forbidden on the coupling `solve` wrote, `repeats` times each.
# Prints one JSON object.
LADDER_CODE = """
import json, sys
from pathlib import Path
from time import perf_counter
sys.path.insert(0, "perfbench")
import workloads
from motkit import solve
from motkit.cli import main
from motkit.measures import as_discrete, load_marginal_pair
from motkit.mot1d import read_coupling_json
from motkit.verify import detect_forbidden
n, work, repeats = int(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
pair = workloads._write_json(work / "pair.json", workloads.triangular_pair(n))
mu, nu = (as_discrete(m) for m in load_marginal_pair(pair))
solve_times = []
for _ in range(repeats):
    start = perf_counter()
    solve(mu, nu, 1.0)
    solve_times.append(perf_counter() - start)
assert main(["solve", pair, "--out", str(work / "c.json")]) == 0
pi = read_coupling_json(work / "c.json")[0]
times, found = [], None
for _ in range(repeats):
    start = perf_counter()
    found = detect_forbidden(pi)
    times.append(perf_counter() - start)
print(json.dumps({"entries": len(pi), "found": len(found), "times": times,
                  "solve_times": solve_times}))
"""

# Runs inside a checkout: solves perfbench's lp_measures pair of m source
# atoms with solve_lp in both senses, `repeats` times each. Prints one JSON
# object.
LP_LADDER_CODE = """
import json, sys
from time import perf_counter
import numpy as np
sys.path.insert(0, "perfbench")
import workloads
from motkit import DiscreteMeasure
from motkit.lp import solve_lp
m, repeats = int(sys.argv[1]), int(sys.argv[2])
(x, w), (y, v) = workloads.lp_measures(np.random.default_rng(workloads.LADDER_SEED), m)
mu, nu = DiscreteMeasure(x, w), DiscreteMeasure(y, v)
rung = {}
for sense in ("min", "max"):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        sol = solve_lp(mu, nu, 1.0, sense)
        times.append(perf_counter() - start)
    rung[sense] = {"times": times, "pivots": sol.iterations,
                   "objective": sol.objective.hex()}
print(json.dumps(rung))
"""


def side_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def bench_argv(workload: str, seed: int) -> list:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def bench_run(root: Path, seed: int) -> dict:
    """One run of every workload, each in a fresh `run.py`, merged as
    `--workload all` reports them: metrics named `<workload>.<metric>`."""
    merged = {"failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, *bench_argv(workload, seed)],
                              cwd=root, env=side_env(root), capture_output=True,
                              text=True, check=True)
        run = json.loads(done.stdout.strip().splitlines()[-1])
        merged["failed"] += run["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in run["metrics"].items()})
    return merged


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: dict) -> dict:
    out = {}
    for name, meta in runs["parent"][0]["metrics"].items():
        sides = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        sign = -1.0 if meta["unit"] in HIGHER_IS_BETTER else 1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"unit": meta["unit"], "parent": quartiles(sides["parent"]),
                     "change": quartiles(sides["change"]), "change_wins": wins,
                     "pairs": len(sides["parent"])}
    return out


def ladder_rung(root: Path, n: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, "-c", LADDER_CODE, str(n), tmp, str(REPEATS)],
                              cwd=root, env=side_env(root), capture_output=True,
                              text=True, check=True)
        rung = json.loads(done.stdout.strip().splitlines()[-1])
        argv = [sys.executable, "-m", "motkit.cli", "verify", "--coupling",
                str(Path(tmp) / "c.json"), "--marginals", str(Path(tmp) / "pair.json")]
        walls = []
        for _ in range(REPEATS):
            start = perf_counter()
            subprocess.run(argv, cwd=root, env=side_env(root), stdout=subprocess.DEVNULL,
                           check=True)
            walls.append(perf_counter() - start)
    return {"entries": rung["entries"], "found": rung["found"],
            "solve_s": statistics.median(rung["solve_times"]),
            "detect_forbidden_s": statistics.median(rung["times"]),
            "verify_cli_s": statistics.median(walls)}


def lp_ladder_rung(root: Path, m: int) -> dict:
    done = subprocess.run([sys.executable, "-c", LP_LADDER_CODE, str(m), str(REPEATS)],
                          cwd=root, env=side_env(root), capture_output=True,
                          text=True, check=True)
    rung = json.loads(done.stdout.strip().splitlines()[-1])
    return {sense: {"solve_s": statistics.median(r["times"]), "pivots": r["pivots"],
                    "objective": r["objective"]} for sense, r in rung.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {"parent": [], "change": []}
    for k in range(PAIRS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(bench_run(roots[side], args.seed))
            print(f"pair {k} {side} failed={runs[side][-1]['failed']}", file=sys.stderr)
    ladder = {f"tri{n}": {side: ladder_rung(root, n) for side, root in roots.items()}
              for n in LADDER}
    lp_ladder = {f"lp{m}x{2 * m}": {side: lp_ladder_rung(root, m)
                                    for side, root in roots.items()}
                 for m in LP_LADDER}

    doc = {
        "command": (f"python3 tools/compare_bench.py --parent PARENT --change CHANGE "
                    f"--seed {args.seed} --out {args.out.name}"),
        "bench_command": " ".join(["python3", *bench_argv("W", args.seed)]),
        "workloads": list(WORKLOADS),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "end_to_end": summarize(runs),
        "ladder": ladder,
        "lp_ladder": lp_ladder,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
