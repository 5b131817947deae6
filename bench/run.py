"""dronecov benchmark: one workload per run, metrics as JSON.

    python3 bench/run.py --workload analytic-altitude --seed 1 \\
        --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

A run repeats whole rounds of the workload's operations until ``--seconds``
have passed, checks the outputs and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Lines before it give the machine and the workload's own
figures; the full record, with the last round's spans of a traced run,
goes to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import pinning  # noqa: E402  (before anything imports NumPy)

SETUP_PROBES = 7           # set-up timings, each in a fresh process
OUT_DIR = pinning.BENCH_DIR / "out"
WORKLOAD_NAMES = ("analytic-altitude", "mc-drops", "sweep-ground-grid")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    """Import dronecov from this checkout's src, and nowhere else."""
    try:
        import dronecov
    except ImportError as exc:
        sys.exit(f"cannot import dronecov from {pinning.SRC}: {exc}")
    where = os.path.dirname(os.path.realpath(dronecov.__file__))
    if not where.startswith(str(pinning.SRC)):
        sys.exit(f"dronecov imported from {where}, not from {pinning.SRC}")
    return dronecov


def _clear_caches(package) -> None:
    # Every round starts cold, as a fresh process would: rounds then repeat
    # the same work exactly, and caches cannot carry results between them.
    for name, module in list(sys.modules.items()):
        if name.startswith(package.__name__ + ".") or name == package.__name__:
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _setup_times(args) -> tuple[list[float], list[float]]:
    """Set-up time of ``SETUP_PROBES`` fresh processes, raw and rescaled
    to the reference speed measured around each."""
    import calibration
    cmd = [sys.executable, str(pinning.BENCH_DIR / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]

    def probe() -> float:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]

    speed = calibration.Speed()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        seconds, factor = speed.measure(probe, background=False)
        raw.append(seconds)
        scaled.append(seconds * factor)
    return raw, scaled


def _rounds(wl, package, seconds: float, tracer=None):
    """The workload's warm-up rounds, then whole rounds until ``seconds``
    have passed.

    Returns the rounds' operations, each round's wall time (the summed
    time of the calls the round made) and each round's factor to the
    reference machine speed.  Op times are rescaled in place: by their own
    call's factor, or for ops a call expands into (sweep rows) by the
    round's.
    """
    import calibration
    import workloads
    call = workloads.make_call(calibration.Speed(), tracer, wl.in_pool)
    rounds, walls, factors = [], [], []
    start = None
    while True:
        if len(rounds) == wl.warmup_rounds:
            start = time.perf_counter()
            if tracer is not None:
                tracer.reset()
        if tracer is not None:
            tracer.start_round()
        _clear_caches(package)
        first = len(call.log)
        ops = wl.run_round(call)
        calls = call.log[first:]
        raw = sum(c.seconds for c in calls)
        factor = sum(c.seconds * c.speed_factor for c in calls) / raw
        for op in ops:
            op.seconds *= op.speed_factor or factor
        rounds.append(ops)
        walls.append(raw)
        factors.append(factor)
        if start is not None and time.perf_counter() - start >= seconds:
            return rounds, walls, factors


def _outputs_repeat(rounds) -> bool:
    def key(op):
        value = op.value
        return (op.label, op.error, getattr(value, "probability", None))
    first = [key(op) for op in rounds[0]]
    return all([key(op) for op in ops] == first for ops in rounds[1:])


def _peak_rss_mib(wl) -> float:
    """Peak RSS of this process plus, for pooled sweeps, the largest sum
    of the pool workers' peaks."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pools = max(getattr(wl, "pool_peaks_kib", None) or [0])
    return (own + pools) / 1024.0


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    package = _import_package()
    import stats
    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    machine = _machine()
    print(json.dumps({"machine": machine}), flush=True)

    pool_figures = {}
    tracer = None
    if args.trace:
        if isinstance(wl, workloads.SweepGroundGrid):
            # Spans recorded in pool workers stay there: take the pool
            # accounting from one untraced pooled sweep, then trace the
            # sweep in-process.
            pooled, walls, factors = _rounds(wl, package, 0.0)
            pool_figures = wl.pool_figures(
                pooled, [w * f for w, f in zip(walls, factors)])
            wl.workers = 1
        tracer = tracing.Tracer()
        with tracer.installed(package):
            rounds, walls, factors = _rounds(wl, package, args.seconds,
                                             tracer)
    else:
        rounds, walls, factors = _rounds(wl, package, args.seconds)
    peak_rss = _peak_rss_mib(wl)

    attempted = sum(len(ops) for ops in rounds)
    failed = sum(op.error is not None for ops in rounds for op in ops)
    warm = wl.warmup_rounds
    rounds, walls, factors = rounds[warm:], walls[warm:], factors[warm:]
    problems = wl.check(rounds[-1])
    if not _outputs_repeat(rounds):
        problems.append("outputs differ between rounds")

    scaled = [w * f for w, f in zip(walls, factors)]
    per_op: dict[str, list[float]] = {}
    for ops in rounds:
        for op in ops:
            per_op.setdefault(op.label, []).append(op.seconds)
    report = {**wl.report(rounds, scaled), **pool_figures}
    report["calibration.speed_factor"] = (stats.median(factors), "ratio")
    report["raw.wall_s"] = (stats.median(walls), "s")

    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, sum(walls), len(rounds))
        layers["experiments.rows"] = report.get("experiments.rows",
                                                (0, ""))[0]
        layers["experiments.worker_utilization_pct"] = 100.0 * report.get(
            "experiments.worker_utilization", (0.0, ""))[0]
        layers["trace.round_s"] = stats.median(scaled)
        metrics = {name: _metric(value, _unit(name))
                   for name, value in layers.items()}
        for label, (nodes, inner) in tracing.op_counts(
                tracer.spans, len(rounds)).items():
            report[f"{label}.quadrature.nodes"] = (nodes, "count")
            report[f"{label}.analytic.inner_integrations"] = (inner, "count")
    else:
        raw_setups, setups = _setup_times(args)
        report["raw.setup_s"] = (stats.median(raw_setups), "s")
        report["raw.setup_s.this_process"] = (setup_s, "s")
        metrics = {
            "setup_s": _metric(stats.median(setups), "s"),
            "wall_s": _metric(stats.median(scaled), "s"),
            "op_geomean_s": _metric(stats.geomean(
                stats.median(v) for v in per_op.values()), "s"),
            "peak_rss_mib": _metric(peak_rss, "MiB"),
        }
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in report.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "rounds": len(rounds),
              "round_walls_s": walls, "speed_factors": factors,
              "ops": {k: stats.summarize(v) for k, v in per_op.items()},
              "errors": sorted({op.error for ops in rounds for op in ops
                                if op.error}),
              "problems": problems,
              "report": {k: _metric(v, u) for k, (v, u) in report.items()},
              "result": result}
    if tracer is not None:
        record["last_round_spans"] = tracer.last_round()
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(pinning.BENCH_DIR / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        print(f"{name}: attempted {results[name]['attempted']}, failed "
              f"{results[name]['failed']}, correct {results[name]['correct']}")
        for line in lines[1:-1]:
            print(line)
        for metric, m in results[name]["metrics"].items():
            print(f"  {metric} = {_fmt(m['value'])} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
