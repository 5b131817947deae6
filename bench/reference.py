"""Rebuild ``reference.json``: Monte Carlo estimates that the analytic
workloads are checked against.

    python3 bench/reference.py            # about 7 minutes on 2 cores

The reference comes from the simulation route, so it stays valid when a
later change corrects the analytic route; estimates do not depend on the
worker count.  A change that declares a new Monte Carlo stream contract
moves these numbers only within their standard errors.
"""

from __future__ import annotations

import json
import os
import time

import pinning
import scenarios
from dronecov import SimulationSpec, estimate_coverage

SEED = 1710
HEIGHT_DROPS = {"ground": 100_000, "60m": 100_000, "150m": 1_000_000}
SPOT_DROPS = 40_000
PATH = pinning.BENCH_DIR / "reference.json"


def _estimate(scn, num_drops: int, workers: int) -> dict:
    start = time.perf_counter()
    est = estimate_coverage(scn, SimulationSpec(num_drops=num_drops,
                                                seed=SEED), workers=workers)
    return {"probability": est.probability, "std_error": est.std_error,
            "num_drops": num_drops, "seed": SEED,
            "wall_s": round(time.perf_counter() - start, 1)}


def main() -> None:
    workers = min(2, os.cpu_count() or 1)
    heights = {}
    for label, h in scenarios.HEIGHTS:
        heights[label] = {"ue_height": h, **_estimate(
            scenarios.at_height(h), HEIGHT_DROPS[label], workers)}
        print(label, heights[label], flush=True)
    spec = scenarios.sweep_spec()
    rows = []
    for bs_height, label in scenarios.SPOT_ROWS:
        scn = scenarios.spot_scenario(spec, bs_height, label)
        rows.append({"bs_height": bs_height, "label": label,
                     **_estimate(scn, SPOT_DROPS, workers)})
        print(rows[-1], flush=True)
    PATH.write_text(json.dumps({
        "command": "python3 bench/reference.py",
        "route": "dronecov.estimate_coverage",
        "heights": heights,
        "sweep_rows": rows,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
