"""Solve the degenerate split-grid family with the LP oracle against HiGHS.

    PYTHONPATH=src python3 tools/degenerate_family.py

Each seed of `split_grid_instance` (tests/instances.py), with equal masses
and with random multiples of 1/8, is a d = 3 pair whose ratio tests tie
often. The script runs `solve_lp(mu, nu, 1.0, "max")` on seeds 0 to
SEEDS - 1 of both variants, with every mass times each of SCALES, and
compares each optimum with scipy's HiGHS (`split_grid_failure`, which the
tests use too). It prints one line per failure, then a summary, and exits 1
when any solve is not optimal or is off HiGHS by more than 1e-9 relative.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from instances import split_grid_failure  # noqa: E402

SEEDS = 600
SCALES = (1.0, 1e-6, 1e6)


def main() -> int:
    failures = 0
    for scale in SCALES:
        for eighths in (False, True):
            for seed in range(SEEDS):
                why = split_grid_failure(seed, eighths, scale)
                if why is not None:
                    failures += 1
                    print(f"seed {seed} eighths={eighths} scale={scale:g}: {why}")
    print(f"{failures} failures in {2 * SEEDS * len(SCALES)} solves")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
