"""The three workloads: inputs, one round of operations, output checks
and the figures each one reports beyond the shared end-to-end metrics.

A round is a fixed list of operations; a run repeats whole rounds, so every
run attempts the same operations in the same proportions.  Workloads that
compute in the benchmark's own process first run one untimed warm-up round:
there the first round read up to 20 % slower than the next ones, though
every round starts with the package's caches cleared.
"""

from __future__ import annotations

import json
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import oracle
import pinning
import scenarios
import stats
from dronecov import (SimulationSpec, conditional_coverage,
                      coverage_probability, estimate_coverage, experiments)

SIGMAS = 4.0               # agreement window, in combined standard errors
MC_DROPS = 2000            # drops per Monte Carlo operation
SWEEP_WORKERS = 2


@dataclass
class Op:
    """One operation of a round: its label, wall time and output, or the
    error it raised."""

    label: str
    seconds: float
    value: Any = None
    error: str | None = None
    speed_factor: float | None = None


def load_reference() -> dict:
    return json.loads((pinning.BENCH_DIR / "reference.json").read_text())


def _within(value: float, target: float, *sigmas: float) -> bool:
    return abs(value - target) <= SIGMAS * math.hypot(*sigmas)


def make_call(speed, tracer=None, background: bool = False):
    """``call(label, fn, *args, **kwargs) -> Op``, which also appends the
    op to ``call.log`` and sets its speed factor from ``speed``, a
    ``calibration.Speed``; ``background`` says the call waits on worker
    processes.  With a tracer, each call is the root span
    ``bench:<label>`` of its trace."""

    def call(label: str, fn, *args, **kwargs) -> Op:
        if tracer is not None:
            layer = fn.__module__.rsplit(".", 1)[-1]
            fn = tracer.wrap(f"bench:{label}",
                             tracer.wrap(f"{layer}.{fn.__name__}", fn))

        def timed() -> Op:
            start = time.perf_counter()
            try:
                op = Op(label, 0.0, fn(*args, **kwargs))
            except (ArithmeticError, RuntimeError, ValueError) as exc:
                op = Op(label, 0.0, error=f"{type(exc).__name__}: {exc}")
            op.seconds = time.perf_counter() - start
            return op

        op, op.speed_factor = speed.measure(timed, background)
        call.log.append(op)
        return op

    call.log = []
    return call


class AnalyticAltitude:
    """``coverage_probability`` at three user heights of the default urban
    scenario, plus the four Andrews-Baccelli-Ganti degenerate cases.  The
    analytic route is deterministic, so the inputs do not vary with the
    seed."""

    name = "analytic-altitude"
    warmup_rounds = 1
    in_pool = False

    def prepare(self, seed: int) -> None:
        self.cases = [(label, scenarios.at_height(h))
                      for label, h in scenarios.HEIGHTS]
        self.cases += [(f"abg-a{alpha:g}-t{thr:g}",
                        scenarios.abg_scenario(alpha, thr))
                       for alpha, thr in scenarios.ABG_CASES]
        self.reference = load_reference()["heights"]

    def run_round(self, call) -> list[Op]:
        return [call(label, coverage_probability, scn)
                for label, scn in self.cases]

    def check(self, ops: list[Op]) -> list[str]:
        problems = []
        for op, (alpha, thr) in zip(ops[len(scenarios.HEIGHTS):],
                                    scenarios.ABG_CASES):
            if op.error:
                continue
            exact = oracle.coverage(thr, alpha)
            if abs(op.value.probability - exact) > op.value.error_estimate:
                problems.append(
                    f"{op.label}: P={op.value.probability!r} differs from "
                    f"the closed form {exact!r} by more than its "
                    f"error_estimate {op.value.error_estimate:.3g}")
        for op in ops[:len(scenarios.HEIGHTS)]:
            if op.error:
                continue
            ref = self.reference[op.label]
            res = op.value
            if not _within(res.probability, ref["probability"],
                           ref["std_error"], res.error_estimate):
                problems.append(
                    f"{op.label}: P={res.probability:.6g} outside "
                    f"{SIGMAS:g} sigma of the Monte Carlo reference "
                    f"{ref['probability']:.6g}+-{ref['std_error']:.2g}")
        return problems

    def report(self, rounds, walls) -> dict:
        out = {}
        for label, _ in scenarios.HEIGHTS:
            out[f"coverage_{label}_s"] = (stats.median(
                op.seconds for ops in rounds for op in ops
                if op.label == label), "s")
        return out


class McDrops:
    """``estimate_coverage`` with one worker on four specs: the default
    scenario at 1.5 m and 60 m, a conditional spec at 60 m and one
    degenerate case.  Each spec's simulation seed comes from the run's
    seed."""

    name = "mc-drops"
    warmup_rounds = 1
    in_pool = False

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        seeds = [rng.randrange(2 ** 32) for _ in range(4)]
        ground = scenarios.at_height(1.5)
        aerial = scenarios.at_height(60.0)
        abg = scenarios.abg_scenario(*scenarios.MC_ABG_CASE)
        self.cases = [
            ("ground", ground, SimulationSpec(MC_DROPS, seed=seeds[0])),
            ("60m", aerial, SimulationSpec(MC_DROPS, seed=seeds[1])),
            ("conditional-60m", aerial,
             scenarios.conditional_spec(aerial, MC_DROPS, seeds[2])),
            ("abg", abg, SimulationSpec(MC_DROPS, seed=seeds[3])),
        ]

    def run_round(self, call) -> list[Op]:
        return [call(label, estimate_coverage, scn, spec, workers=1)
                for label, scn, spec in self.cases]

    def _analytic(self, label: str, scn, spec) -> tuple[float, float]:
        if label == "abg":
            alpha, thr = scenarios.MC_ABG_CASE
            exact = oracle.coverage(thr, alpha)
            return exact, 0.0
        if spec.fixed_serving_distance is not None:
            return conditional_coverage(scn, spec.fixed_serving_distance,
                                        spec.force_serving_los), 0.0
        res = coverage_probability(scn)
        return res.probability, res.error_estimate

    def check(self, ops: list[Op]) -> list[str]:
        problems = []
        for op, (label, scn, spec) in zip(ops, self.cases):
            if op.error:
                continue
            est = op.value
            p, n = est.probability, est.num_drops
            if not math.isclose(est.std_error, math.sqrt(p * (1 - p) / n),
                                rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"{label}: std_error {est.std_error!r} is "
                                f"not sqrt(p(1-p)/n)")
            target, err = self._analytic(label, scn, spec)
            # For the closed form the binomial sigma at the exact value
            # is the yardstick; elsewhere the estimate's own.
            sigma = (math.sqrt(target * (1 - target) / n) if label == "abg"
                     else est.std_error)
            if not _within(p, target, sigma, err):
                problems.append(
                    f"{label}: estimate {p:.5f}+-{est.std_error:.5f} is "
                    f"outside {SIGMAS:g} sigma of {target:.6f}")
        return problems

    def report(self, rounds, walls) -> dict:
        drops = sum(spec.num_drops for _, _, spec in self.cases)
        return {"mc_drops_per_s": (drops / stats.median(walls), "drops/s")}


class SweepGroundGrid:
    """``experiments.sweep`` over figure3-ground, analytic rows only, with
    two pool workers: 15 station heights x 4 environments x 2 tilts, user
    at 1.5 m."""

    name = "sweep-ground-grid"
    # Every sweep forks fresh pool workers, so no round is warmer than
    # another and none is spent on warming up.
    warmup_rounds = 0

    def __init__(self) -> None:
        self.workers = SWEEP_WORKERS
        self.pool_peaks_kib: list[int] = []

    @property
    def in_pool(self) -> bool:
        return self.workers > 1

    def prepare(self, seed: int) -> None:
        self.spec = scenarios.sweep_spec()
        self.reference = load_reference()["sweep_rows"]

    def run_round(self, call) -> list[Op]:
        with _measured_pools(self.pool_peaks_kib):
            op = call("sweep", experiments.sweep, self.spec,
                      workers=self.workers)
        if op.error:
            return [op]
        return [Op(f"{row.param_1:g}/{row.param_2}", row.wall_time_s, row,
                   None if row.ok else row.message)
                for row in op.value.rows]

    def check(self, ops: list[Op]) -> list[str]:
        problems = []
        expected = len(self.spec.axes[0].values) * len(self.spec.axes[1].values)
        if len(ops) != expected:
            problems.append(f"{len(ops)} rows, expected {expected}")
        for op in ops:
            row = op.value
            if row is not None and row.ok and not (0.0 <= row.probability <= 1.0
                               and math.isfinite(row.error_estimate)
                               and row.error_estimate > 0.0):
                problems.append(f"row {op.label}: p={row.probability!r} "
                                f"error={row.error_estimate!r}")
        by_label = {op.label: op.value for op in ops if op.value is not None}
        for ref in self.reference:
            row = by_label.get(f"{ref['bs_height']:g}/{ref['label']}")
            if row is None or not row.ok:
                continue
            if not _within(row.probability, ref["probability"],
                           ref["std_error"], row.error_estimate):
                problems.append(
                    f"row {ref['bs_height']:g}/{ref['label']}: "
                    f"P={row.probability:.6g} outside {SIGMAS:g} sigma of "
                    f"the Monte Carlo reference {ref['probability']:.6g}")
        return problems

    def report(self, rounds, walls) -> dict:
        per_round = [stats.summarize([op.seconds for op in ops])
                     for ops in rounds]
        tail = stats.tail_name(stats.tail_percentile(len(rounds[0])))
        out = {
            "sweep_rows_per_s": (stats.median(
                len(ops) / w for ops, w in zip(rounds, walls)), "rows/s"),
            "sweep_row_median_s": (stats.median(
                s["median"] for s in per_round), "s"),
            f"sweep_row_{tail}_s": (stats.median(
                s[tail] for s in per_round), "s"),
        }
        out.update(self.pool_figures(rounds, walls))
        return out

    def pool_figures(self, rounds, walls) -> dict:
        """Pool accounting of sweeps: row compute time, the rest of
        workers x wall, and their ratio."""
        compute = stats.median(sum(op.seconds for op in ops)
                               for ops in rounds)
        capacity = self.workers * stats.median(walls)
        return {
            "experiments.rows": (len(rounds[0]), "count"),
            "experiments.row_compute_s": (compute, "s"),
            "experiments.pool_overhead_s": (capacity - compute, "s"),
            "experiments.worker_utilization": (
                compute / capacity, f"share of {self.workers} x wall"),
        }


WORKLOADS = {w.name: w for w in (AnalyticAltitude, McDrops, SweepGroundGrid)}


def _vm_hwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


@contextmanager
def _measured_pools(peaks: list[int]):
    """Record the summed peak RSS of each sweep pool's workers just before
    the pool shuts them down."""

    class MeasuredPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            procs = list((self._processes or {}).values())
            peaks.append(sum(_vm_hwm_kib(p.pid) for p in procs))
            super().shutdown(wait=wait, cancel_futures=cancel_futures)

    original = experiments.ProcessPoolExecutor
    experiments.ProcessPoolExecutor = MeasuredPool
    try:
        yield
    finally:
        experiments.ProcessPoolExecutor = original
