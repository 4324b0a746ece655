"""Time the coupling JSON and maps CSV writers on the triangular pair.

    PYTHONPATH=src python3 tools/writer_ladder.py [CELLS ...]

For each size (default 1e4, 1e5 and 1e6 cells) a fresh Python process
solves perfbench.workloads.triangular_pair as `motkit solve --out
--maps-csv` does, then times one call each of write_coupling_json (the
coupling, its cost and its maps) and write_maps_csv, and reports its peak
RSS. At the smallest size both files are compared byte for byte with the
json.dumps and repr oracles of tests/test_writers.py. Prints one JSON line
per size and exits 1 if a comparison fails. motkit is imported from
PYTHONPATH, so running the script against two checkouts compares them.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CELLS = (10_000, 100_000, 1_000_000)


def rung(cells: int, compare: bool) -> dict:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    from workloads import triangular_pair
    from motkit.measures import load_marginal_pair
    from motkit.mot1d import cost, write_coupling_json, write_maps_csv
    from motkit.pipeline import solve

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "pair.json").write_text(json.dumps(triangular_pair(cells)))
        mu, nu = load_marginal_pair(str(work / "pair.json"))
        sol = solve(mu, nu, 1.0, "auto", 1e-9)
        full = sol.coupling()
        total = cost(full, 1.0)
        start = perf_counter()
        write_coupling_json(work / "c.json", full, total, sol.maps)
        json_s = perf_counter() - start
        start = perf_counter()
        write_maps_csv(work / "m.csv", sol.maps)
        csv_s = perf_counter() - start
        record = {"cells": cells, "entries": len(full), "map_rows": len(sol.maps),
                  "write_coupling_json_s": round(json_s, 4),
                  "write_maps_csv_s": round(csv_s, 4),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                       / 1024, 1)}
        if compare:
            from test_writers import oracle_coupling_json, oracle_maps_csv
            oracle_coupling_json(work / "c_old.json", full, total, sol.maps)
            oracle_maps_csv(work / "m_old.csv", sol.maps)
            record["bytes_equal"] = all(
                (work / new).read_bytes() == (work / old).read_bytes()
                for new, old in (("c.json", "c_old.json"), ("m.csv", "m_old.csv")))
    return record


def main(argv) -> int:
    if argv[:1] == ["--rung"]:
        print(json.dumps(rung(int(argv[1]), argv[2] == "1")))
        return 0
    cells = sorted(map(int, argv)) if argv else CELLS
    ok = True
    for n in cells:
        out = subprocess.run([sys.executable, __file__, "--rung", str(n),
                              "1" if n == cells[0] else "0"],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        record = json.loads(out)
        ok = ok and record.get("bytes_equal", True)
        print(json.dumps(record), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
