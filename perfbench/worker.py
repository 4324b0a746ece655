"""Closed-loop client: runs one workload's jobs through motkit.cli.main.

Started by run.py as a fresh, single-threaded process (BLAS threads pinned
to 1 through the environment). Usage:

    python3 perfbench/worker.py MANIFEST.json

The manifest lists the jobs (argv per CLI call), the run length, whether to
trace, and where to write the result. Without tracing, the worker runs one
untimed warm-up job and then cycles through the jobs until the run length
has passed, one job at a time. With tracing, it runs whole passes over the
jobs, each job once traced and once untraced (alternating which goes first),
and then the reference ladder, traced.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import motkit
import motkit.cli
import motkit.lp
import motkit.measures
import motkit.mot1d
import motkit.radial

from tracing import Tracer, layer_metrics

OUTPUT_TAIL = 4000      # characters of each call's stdout kept for checking
PROBE_P = 1.0


def _call(step: dict, tracer: Tracer | None):
    """Run one step; returns its exit code, the probe's verdict, or an
    "exception: ..." string when motkit raised past its own CLI handler."""
    try:
        if "argv" in step:
            if tracer is None:
                return motkit.cli.main(step["argv"])
            return tracer.call("cli.main", motkit.cli.main, step["argv"])
        mu, nu = motkit.measures.load_marginal_pair(step["pair"])
        mu, nu = motkit.measures.as_discrete(mu), motkit.measures.as_discrete(nu)
        return bool(motkit.lp.uniqueness_probe(mu, nu, PROBE_P))
    except SystemExit as exc:          # argparse rejects argv this way
        return exc.code
    except Exception:                  # keep the loop running; the parent counts it
        return "exception: " + traceback.format_exc(limit=4)


def run_job(job: dict, tracer: Tracer | None = None) -> dict:
    """Run every step of a job; time each call and digest the outputs."""
    calls = []
    digest = hashlib.sha256()
    for step in job["steps"]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            rc = _call(step, tracer)
            elapsed = perf_counter() - start
        text = out.getvalue()
        calls.append({"label": step["label"], "rc": rc, "t": elapsed,
                      "out": text[-OUTPUT_TAIL:], "err": err.getvalue()[-OUTPUT_TAIL:]})
        digest.update(f"{step['label']}\0{rc!r}\0{text}\0".encode())
    for path in job["outputs"]:
        p = Path(path)
        digest.update(p.read_bytes() if p.is_file() else b"\0missing\0")
    return {"job": job["id"], "t": sum(c["t"] for c in calls), "calls": calls,
            "digest": digest.hexdigest()}


def closed_loop(jobs: list, seconds: float) -> tuple:
    """Untraced run: warm up on the first job, then one job after another
    until `seconds` have passed. Returns (records, measured seconds)."""
    records = [dict(run_job(jobs[0]), phase="warmup")]
    start = perf_counter()
    k = 1
    while perf_counter() - start < seconds:
        records.append(dict(run_job(jobs[k % len(jobs)]), phase="loop"))
        k += 1
    return records, perf_counter() - start


def traced_passes(jobs: list, seconds: float, tracer: Tracer) -> tuple:
    """Traced run: whole passes over the jobs until `seconds` have passed.
    Each job runs traced and untraced back to back. Returns (records,
    number of passes, traced job ids)."""
    records = [dict(run_job(jobs[0]), phase="warmup")]
    traced_ids = []
    start = perf_counter()
    passes = 0
    while passes == 0 or perf_counter() - start < seconds:
        for job in jobs:
            order = (True, False) if passes % 2 == 0 else (False, True)
            for traced in order:
                if traced:
                    tracer.job = f"p{passes}:{job['id']}"
                    traced_ids.append(tracer.job)
                    tracer.install()
                    try:
                        rec = run_job(job, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    rec = run_job(job)
                records.append(dict(rec, phase="traced" if traced else "untraced"))
        passes += 1
    return records, passes, traced_ids


def run_ladder(ladder: list, tracer: Tracer) -> tuple:
    """Run each reference instance once, traced under its own job id."""
    records, layers = [], {}
    for job in ladder:
        tracer.job = f"ladder:{job['id']}"
        tracer.install()
        try:
            rec = run_job(job, tracer)
        finally:
            tracer.uninstall()
        records.append(dict(rec, phase="ladder"))
        layers[job["id"]] = layer_metrics(*tracer.totals([tracer.job]))
    return records, layers


def main(manifest_path: str) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    src = Path(manifest["src"]).resolve()
    if src not in Path(motkit.__file__).resolve().parents:
        print(f"motkit imported from {motkit.__file__}, expected under {src}",
              file=sys.stderr)
        return 2
    jobs, seconds = manifest["jobs"], float(manifest["seconds"])
    result = {}
    if manifest["trace"]:
        tracer = Tracer({"cli": motkit.cli, "lp": motkit.lp, "measures": motkit.measures,
                         "mot1d": motkit.mot1d, "radial": motkit.radial})
        records, passes, traced_ids = traced_passes(jobs, seconds, tracer)
        ladder_records, ladder_layers = run_ladder(manifest["ladder"], tracer)
        records += ladder_records
        traced = set(traced_ids)
        result["passes"] = passes
        result["spans_per_pass"] = sum(1 for s in tracer.spans if s[4] in traced) / passes
        result["layers"] = layer_metrics(*tracer.totals(traced_ids), scale=passes)
        result["ladder"] = ladder_layers
        tracer.dump(manifest["spans_path"])
    else:
        records, elapsed = closed_loop(jobs, seconds)
        result["elapsed"] = elapsed
    result["records"] = records
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(manifest["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
