"""Record the SHA-256 of every figure-sweeps CSV for a range of seeds.

    python3 bench/record_csv_hashes.py 0 50

writes bench/csv_sha256.json, which the figure-sweeps check compares
against whenever a run's seed is in it. Re-record only when a change is
meant to alter the CSV bytes, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, _import_package


def main(argv: list[str]) -> int:
    first, stop = int(argv[0]), int(argv[1])
    _import_package()
    from workloads import FigureSweeps

    record = {}
    for seed in range(first, stop):
        w = FigureSweeps(seed, smoke=False)
        result = w.run_pass()
        if result.failed_cells:
            raise SystemExit(f"seed {seed}: {result.failed_cells} cells failed; not recorded")
        record[str(seed)] = w.hashes(result.outputs)
        print(f"seed {seed} recorded", flush=True)
    (BENCH_DIR / "csv_sha256.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
