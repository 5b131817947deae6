"""Bias of the Monte Carlo estimate on its automatic disk, against the
analytic route.

    PYTHONPATH=src python3 scripts/disk_bias.py   # about 6 minutes on 2 cores

Runs ``estimate_coverage`` with the default radius, 4,000,000 drops
(``DROPS``), seed 123 (``SEED``) and 2 worker processes (``WORKERS``) over
19 scenarios: the default scenario with the user at 1.5, 60 and 150 m,
and each built-in environment with stations at 10 and 150 m and the user
at 1.5 and 60 m.
Each row prints the disk radius, its ``far_ripple``, the stations per drop,
the estimate P, the analytic ``coverage_probability``, their difference
and z = (P - analytic) / std_error.  The far field beyond the disk enters
as its mean only, so z measures what that replacement costs; |z| within 4
on every row is what the radius rule is held to.  The script exits 1 if
any row has |z| above 4 or an undefined z (no spread to judge it by),
else 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

from dronecov.analytic import coverage_probability
from dronecov.config import builtin_environments, default_scenario
from dronecov.montecarlo import SimulationSpec, estimate_coverage

DROPS = 4_000_000
SEED = 123
WORKERS = 2
MAX_Z = 4.0


def scenarios():
    base = default_scenario()
    for ue in (1.5, 60.0, 150.0):
        yield f"default ue={ue:g}", replace(base, ue_height=ue)
    for name, env in builtin_environments():
        for bs in (10.0, 150.0):
            for ue in (1.5, 60.0):
                yield (f"{name} bs={bs:g} ue={ue:g}",
                       replace(base, env=env, bs_height=bs, ue_height=ue))


def main() -> int:
    spec = SimulationSpec(DROPS, seed=SEED)
    print(f"{'scenario':<32} {'radius_m':>9} {'far_ripple':>10} "
          f"{'stations':>8} {'P':>10} {'analytic':>10} {'P-analytic':>10} "
          f"{'z':>6}")
    failed = 0
    for label, scn in scenarios():
        est = estimate_coverage(scn, spec, workers=WORKERS)
        exact = coverage_probability(scn).probability
        diag = est.diagnostics
        z = ((est.probability - exact) / est.std_error if est.std_error
             else float("nan"))
        print(f"{label:<32} {diag['disk_radius']:9.1f} "
              f"{diag['far_ripple']:10.4f} "
              f"{diag['stations'] / diag['drops']:8.1f} "
              f"{est.probability:10.3e} {exact:10.3e} "
              f"{est.probability - exact:+10.2e} {z:6.2f}", flush=True)
        failed += math.isnan(z) or abs(z) > MAX_Z
    if failed:
        print(f"{failed} rows beyond |z| = {MAX_Z:g} or undefined")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
