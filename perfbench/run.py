"""motkit benchmark: seeded CLI workloads, checked outputs, end-to-end and
per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 30 --trace 0

Workloads: sweep-1d, lp-oracle, radial-lift (or "all" to run each in turn).
The run builds a pool of instances from the seed, computes independent LP
references with scipy's HiGHS, measures the fixed start-up cost of a CLI
call, and then starts one fresh worker process (a single closed-loop
client, single-threaded) that calls motkit.cli.main(argv) on the generated
files for `--seconds`. Every job's outputs are checked; failures are
counted, not fatal. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from spans recorded around calls into each motkit
module (see tracing.py), plus the reference ladder. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import LAYER_COUNTS, LAYER_TIMES  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 175.0
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 70, 60, 50)
TAIL_MIN_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SOLVE_LABELS = ("solve", "solve-radial")
END_TO_END = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "jobs_per_s": "1/s", "solve_p50_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics reported for each rung of the reference ladder
LADDER_TRI_METRICS = ("measures.order_check_s", "mot1d.sweep_self_s",
                      "verify.validate_s", "verify.forbidden_s",
                      "measures.call_matrix_bytes", "wall_s")
LADDER_LP_METRICS = ("lp.assemble_s", "lp.simplex_s", "lp.pivots",
                     "lp.tableau_bytes", "wall_s")
LADDER_RUNGS = ([(f"tri{n}", LADDER_TRI_METRICS) for n in wl.LADDER_TRI]
                + [(f"lp{m}x{2 * m}", LADDER_LP_METRICS) for m in wl.LADDER_LP])


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def per_layer_metric_names() -> list:
    return (list(LAYER_TIMES) + list(LAYER_COUNTS) + ["trace.overhead_s", "trace.spans"]
            + [f"ladder.{rung}.{m}" for rung, names in LADDER_RUNGS for m in names])


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list:
    """Wall time of fresh interpreters that import motkit.cli: the fixed
    cost every CLI call pays before any work. The wait blocks in waitpid
    (a watchdog kills a hung child), because a wait with a timeout polls
    and would round the times up to its polling interval."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import motkit.cli"],
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - start)
        if code != 0:
            raise BenchError(f"importing motkit.cli exited {code}")
    return times


def run_worker(manifest: dict, work: Path, env: dict, deadline: float) -> dict:
    path = work / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    timeout = max(5.0, deadline - perf_counter())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                              env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(manifest["result_path"]) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def check_call(call: dict, expect: dict) -> list:
    """Problems with one CLI call (or probe) against the job's expectations."""
    label, rc, out = call["label"], call["rc"], call["out"]
    if isinstance(rc, str):
        return [f"{label}: {rc.strip().splitlines()[-1]}"]
    if label == "probe":
        return [] if isinstance(rc, bool) else [f"probe returned {rc!r}"]
    problems = []
    want_rc = expect["rc"][label]
    if rc != want_rc:
        problems.append(f"{label}: exit {rc}, expected {want_rc}: {call['err'][-300:]}")
        return problems
    if label in expect.get("cost", {}):
        found = re.search(r"(?:cost|objective)=(\S+)", out)
        want = expect["cost"][label]
        if not found or not _close(float(found.group(1)), want, wl.LP_COST_RTOL):
            problems.append(f"{label}: objective {found and found.group(1)} vs HiGHS {want!r}")
    if label == "verify":
        doc = json.loads(out.strip().splitlines()[-1])
        if doc["forbidden"]:
            problems.append(f"verify: {len(doc['forbidden'])} forbidden configurations")
    if label == "solve-radial":
        costs = re.search(r"cost_1d=(\S+) cost_ddim=(\S+)", out)
        if not costs or not _close(float(costs.group(1)), float(costs.group(2)),
                                   wl.RADIAL_COST_RTOL):
            problems.append(f"solve-radial: cost_1d != cost_ddim ({costs and costs.groups()})")
        summary = json.loads(out.strip().splitlines()[-1])
        if (summary["samples"] != expect["samples"]
                or summary["martingale_mean_max_se"] > wl.MC_MEAN_MAX_SE
                or summary["annulus_max_gap"] > wl.MC_ANNULUS_MAX_GAP):
            problems.append(f"solve-radial: Monte Carlo summary out of bounds {summary}")
    return problems


def check_records(records: list, jobs: dict) -> tuple:
    """(failed job count, first problems). A job fails when any call fails
    its check or its outputs differ from an earlier run of the same job."""
    first_digest, failed, problems = {}, 0, []
    for rec in records:
        job = jobs[rec["job"]]
        found = []
        for call in rec["calls"]:
            try:
                found += check_call(call, job["expect"])
            except (ValueError, KeyError, IndexError) as exc:
                found.append(f"{call['label']}: unreadable output ({exc!r})")
        seen = first_digest.setdefault(rec["job"], rec["digest"])
        if seen != rec["digest"]:
            found.append("outputs differ from an earlier run of the same instance")
        if found:
            failed += 1
            problems.append(f"{rec['phase']} {rec['job']}: {'; '.join(found)}")
    return failed, problems


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list) -> tuple:
    """(value, percentile, beyond): the highest percentile of TAIL_PERCENTILES
    with at least TAIL_MIN_BEYOND samples above it (nearest rank); the
    median when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], q, n - rank
    return statistics.median(ordered), 50, n // 2


def call_times(records: list, labels) -> list:
    return [c["t"] for r in records for c in r["calls"] if c["label"] in labels]


def end_to_end(result: dict, setup: list) -> tuple:
    """(metrics, notes): the end-to-end metrics and printed-only details."""
    loop = [r for r in result["records"] if r["phase"] == "loop"]
    if not loop:
        raise BenchError("no job completed inside the run")
    job_t = [r["t"] for r in loop]
    tail_value, q, beyond = tail(job_t)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(job_t),
        "job_tail_s": tail_value,
        "jobs_per_s": len(loop) / result["elapsed"],
        "solve_p50_s": statistics.median(call_times(loop, SOLVE_LABELS)),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = [f"  job_tail_s is p{q} of {len(loop)} jobs ({beyond} beyond it)"]
    for name, label in (("verify_p50_s", "verify"), ("oracle_p50_s", "oracle-max"),
                        ("oracle_swap_p50_s", "oracle-swap"), ("probe_p50_s", "probe")):
        times = call_times(loop, (label,))
        if times:
            notes.append(f"  {name:<26} {statistics.median(times):.6g} s ({len(times)} calls)")
    return metrics, notes


def per_layer(result: dict) -> dict:
    records = result["records"]
    traced = [r["t"] for r in records if r["phase"] == "traced"]
    untraced = [r["t"] for r in records if r["phase"] == "untraced"]
    metrics = dict(result["layers"])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.spans"] = result["spans_per_pass"]
    ladder_t = {r["job"]: r["t"] for r in records if r["phase"] == "ladder"}
    for rung, names in LADDER_RUNGS:
        for m in names:
            if rung not in ladder_t:
                value = 0.0          # the rung belongs to another workload
            elif m == "wall_s":
                value = ladder_t[rung]
            else:
                value = result["ladder"][rung][m]
            metrics[f"ladder.{rung}.{m}"] = value
    return {name: metrics[name] for name in per_layer_metric_names()}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=WORK))
    try:
        pool = wl.build_pool(workload, seed, work / "pool")
        ladder = wl.build_ladder(workload, work / "ladder") if trace else []
        env = worker_env()
        setup = [] if trace else measure_setup(env)
        manifest = {
            "seconds": seconds, "trace": trace, "src": str(SRC),
            "jobs": [asdict(j) for j in pool],
            "ladder": [asdict(j) for j in ladder],
            "result_path": str(work / "result.json"),
            "spans_path": str(WORK / f"spans-{workload}-seed{seed}.jsonl"),
        }
        result = run_worker(manifest, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = {j.id: asdict(j) for j in pool + ladder}
    failed, problems = check_records(result["records"], jobs)
    attempted = len(result["records"])
    lines = [f"workload={workload} seed={seed} trace={int(trace)} "
             f"instances={len(pool)} attempted={attempted} failed={failed} "
             f"failed_frac={failed / attempted:.6g}"]
    if trace:
        metrics = per_layer(result)
        notes = [f"  values are per pass over the pool; {result['passes']} traced passes"]
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, notes = end_to_end(result, setup)
        units = END_TO_END
    lines += [f"  {name:<26} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines += notes
    for problem in problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "motkit" / "cli.py").is_file():
        print(f"motkit sources not found under {SRC}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for run in runs.values():
        print("\n".join(run.pop("lines")))
    if len(runs) == 1:
        summary = next(iter(runs.values()))
    else:
        summary = {"correct": all(r["correct"] for r in runs.values()),
                   "attempted": sum(r["attempted"] for r in runs.values()),
                   "failed": sum(r["failed"] for r in runs.values()),
                   "metrics": {f"{w}.{k}": v for w, r in runs.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
