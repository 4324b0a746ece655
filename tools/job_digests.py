"""Print the output digest of every benchmark job of the seed 1-3 pools.

    PYTHONPATH=src python3 tools/job_digests.py > digests.txt

For each workload of perfbench/workloads.py and each seed 1, 2 and 3, the
script builds the job pool in a temporary directory and runs every job once,
in process, through perfbench/worker.run_job. Each line reads
`workload/seed/job digest`, where the digest covers every CLI call's exit
code and stdout and the bytes of the job's output files. motkit is imported
from PYTHONPATH, so running the script against two checkouts and diffing
the outputs shows whether a change keeps every output byte-identical.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from worker import run_job  # noqa: E402
from workloads import build_pool  # noqa: E402

WORKLOADS = ("sweep-1d", "lp-oracle", "radial-lift")
SEEDS = (1, 2, 3)


def main() -> int:
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                for job in build_pool(workload, seed, Path(work)):
                    record = run_job(asdict(job))
                    print(f"{workload}/{seed}/{record['job']} {record['digest']}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
