"""Reference figure, not a workload: how the analytic route refuses rows
of figure3-aerial.

    python3 bench/aerial_refusals.py      # about 4-5 minutes on 2 cores

Runs ``experiments.sweep`` over figure3-aerial (user at 60 m, 15 station
heights x 4 environments x 2 tilts), analytic rows only, with two workers,
and prints the refusals by message with their row times next to the times
of the rows that succeed.
"""

from __future__ import annotations

import collections
import json
import time
from dataclasses import replace

import pinning  # noqa: F401  (before NumPy)
from dronecov import experiments, figure3_preset


def main() -> None:
    spec = replace(figure3_preset("aerial"), methods=("analytic",))
    start = time.perf_counter()
    result = experiments.sweep(spec, workers=2)
    wall = time.perf_counter() - start
    failed = [row for row in result.rows if not row.ok]
    ok = [row for row in result.rows if row.ok]
    slowest = max(ok, key=lambda row: row.wall_time_s)
    by_message = collections.Counter(row.message.split(" for ")[0]
                                     for row in failed)
    print(json.dumps({
        "rows": len(result.rows),
        "refused": len(failed),
        "refusals_by_message": dict(by_message),
        "refusal_s": [min(r.wall_time_s for r in failed),
                      max(r.wall_time_s for r in failed)] if failed else None,
        "success_s": [min(r.wall_time_s for r in ok), slowest.wall_time_s],
        "slowest_success": [slowest.param_1, slowest.param_2],
        "sweep_wall_s": wall,
    }, indent=1))


if __name__ == "__main__":
    main()
