"""Command-line front end: config loading, subcommand dispatch, CSV
emission and the exit-code contract.

Exit codes: 0 on success, 1 when a computation fails or a validation
check does not pass, 2 on usage or configuration errors.

All numbers are printed with ``repr``, which uses exactly enough digits
to reproduce the underlying double.  Sweep CSV rows follow the fixed
header ``param_1,param_2,method,probability,error_estimate,wall_time_s``
(``param_2`` stays empty on one-axis sweeps); ``--no-timing`` zeroes the
wall-time column so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import replace
from functools import partial
from typing import IO

from .analytic import coverage_probability
from .config import ConfigFile, default_config, parse_config
from .errors import (CapabilityError, ConfigError, DomainError,
                     QuadratureError)
from .experiments import (SweepAxis, SweepResult, SweepSpec, figure2_preset,
                          figure3_preset, figure4_preset, sweep, validate)
from .montecarlo import SimulationSpec, estimate_coverage

__all__ = ["main", "run", "write_csv"]

CSV_HEADER = "param_1,param_2,method,probability,error_estimate,wall_time_s"

_COMPUTE_ERRORS = (CapabilityError, DomainError, QuadratureError)

_PRESETS = {
    "figure2": figure2_preset,
    "figure3-ground": partial(figure3_preset, "ground"),
    "figure3-aerial": partial(figure3_preset, "aerial"),
    "figure4": figure4_preset,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse override
        raise _UsageError(message)


def _fmt(value) -> str:
    return value if isinstance(value, str) else repr(float(value))


def write_csv(result: SweepResult, stream: IO[str],
              include_timing: bool = True) -> None:
    """Emit sweep rows under the fixed CSV schema."""
    stream.write(CSV_HEADER + "\n")
    for row in result.rows:
        cells = (
            _fmt(row.param_1),
            "" if row.param_2 is None else _fmt(row.param_2),
            row.method,
            repr(row.probability),
            repr(row.error_estimate),
            repr(row.wall_time_s if include_timing else 0.0),
        )
        stream.write(",".join(cells) + "\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _seed_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    try:
        # SimulationSpec owns the seed's range check.
        return SimulationSpec(seed=value).seed
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _number(text: str) -> int | float:
    # Integer literals stay int, so integer fields such as fading orders
    # can be swept; float fields accept either.
    try:
        return int(text)
    except ValueError:
        return float(text)


def _grid(text: str) -> tuple[int | float, ...]:
    try:
        if ":" in text:
            start, stop, step = (_number(part) for part in text.split(":"))
            if step == 0.0:
                raise ValueError("step must be nonzero")
            values = []
            value = start
            # Inclusive arithmetic progression with a half-step margin.
            while (value - stop) * step <= 0.5 * abs(step):
                values.append(value)
                value = start + len(values) * step
            return tuple(values)
        return tuple(_number(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}: use start:stop:step or v1,v2,... "
            f"({exc})")


def _methods(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> _Parser:
    parser = _Parser(
        prog="dronecov",
        description="Downlink coverage of aerial and ground users in a "
                    "random cellular network.")
    commands = parser.add_subparsers(dest="command")

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", metavar="PATH",
                         help="config file path, or 'defaults' for the "
                              "built-in reference values")
        sub.add_argument("--workers", type=_positive_int, default=1,
                         help="worker process budget (default 1)")
        sub.add_argument("--seed", type=_seed_int, default=None,
                         help="override the simulation seed")
        sub.add_argument("--output", metavar="PATH",
                         help="write to this file instead of stdout")

    cov = commands.add_parser("coverage",
                              help="evaluate the coverage integrals")
    common(cov)

    sim = commands.add_parser("simulate",
                              help="Monte Carlo coverage estimate")
    common(sim)

    swp = commands.add_parser("sweep", help="parameter sweep to CSV")
    common(swp)
    swp.add_argument("--preset", choices=sorted(_PRESETS),
                     help="run a bundled sweep instead of giving axes")
    swp.add_argument("--sweep-param", action="append", default=[],
                     metavar="FIELD",
                     help="scenario field path to sweep (repeat for a "
                          "second axis)")
    swp.add_argument("--sweep-grid", action="append", default=[],
                     type=_grid, metavar="GRID",
                     help="grid as start:stop:step or v1,v2,... "
                          "(one per --sweep-param)")
    swp.add_argument("--methods", type=_methods, default=None,
                     help="comma-separated subset of analytic, "
                          "monte-carlo (default: the preset's methods, "
                          "else analytic)")
    swp.add_argument("--no-timing", action="store_true",
                     help="zero the wall_time_s column for "
                          "byte-reproducible output")

    val = commands.add_parser("validate",
                              help="run the internal cross-check matrix")
    common(val)
    return parser


def _load_config(path: str | None) -> ConfigFile:
    if path is None or path == "defaults":
        return default_config()
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _emit(text: str, output: str | None, stdout: IO[str]) -> None:
    if output is None:
        stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_coverage(args, cfg: ConfigFile, stdout: IO[str]) -> int:
    res = coverage_probability(cfg.to_scenario(), cfg.quadrature)
    _emit(f"probability={res.probability!r}\n"
          f"error_estimate={res.error_estimate!r}\n",
          args.output, stdout)
    return 0


def _run_simulate(args, cfg: ConfigFile, stdout: IO[str]) -> int:
    est = estimate_coverage(cfg.to_scenario(),
                            cfg.to_simulation(seed=args.seed),
                            workers=args.workers)
    lines = [f"probability={est.probability!r}",
             f"std_error={est.std_error!r}",
             f"num_drops={est.num_drops}"]
    lines += [f"{key}={est.diagnostics[key]!r}"
              for key in sorted(est.diagnostics)]
    _emit("\n".join(lines) + "\n", args.output, stdout)
    return 0


def _sweep_spec(args, cfg: ConfigFile) -> SweepSpec:
    if args.preset is not None:
        if args.sweep_param or args.sweep_grid:
            raise ConfigError("give either --preset or explicit "
                              "--sweep-param/--sweep-grid, not both")
        spec = _PRESETS[args.preset]()
    else:
        if not args.sweep_param:
            raise ConfigError("sweep needs --preset or at least one "
                              "--sweep-param with --sweep-grid")
        if len(args.sweep_param) != len(args.sweep_grid):
            raise ConfigError("each --sweep-param needs exactly one "
                              "--sweep-grid")
        axes = tuple(SweepAxis(parameter=param, values=grid)
                     for param, grid in zip(args.sweep_param,
                                            args.sweep_grid))
        spec = SweepSpec(base=cfg.to_scenario(), axes=axes)
    spec = replace(spec, simulation=cfg.to_simulation(seed=args.seed),
                   quadrature=cfg.quadrature)
    if args.methods is not None:
        spec = replace(spec, methods=args.methods)
    return spec


def _run_sweep(args, cfg: ConfigFile, stdout: IO[str],
               stderr: IO[str]) -> int:
    spec = _sweep_spec(args, cfg)
    result = sweep(spec, workers=args.workers)
    buffer = io.StringIO()
    write_csv(result, buffer, include_timing=not args.no_timing)
    _emit(buffer.getvalue(), args.output, stdout)
    failed = result.failures
    if failed:
        stderr.write(f"{len(failed)} of {len(result.rows)} rows "
                     f"failed; first: {failed[0].message}\n")
    if len(failed) == len(result.rows):
        return 1
    return 0


def _run_validate(args, cfg: ConfigFile, stdout: IO[str]) -> int:
    report = validate(cfg.to_scenario(), cfg.to_simulation(seed=args.seed),
                      cfg.quadrature, workers=args.workers)
    lines = []
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        lines.append(f"{verdict} {check.name}: "
                     f"measured={check.measured:.6g} "
                     f"tolerance={check.tolerance:g} ({check.detail})")
    lines.append(f"{'OK' if report.ok else 'FAILED'}: "
                 f"{sum(c.passed for c in report.checks)} of "
                 f"{len(report.checks)} checks passed")
    _emit("\n".join(lines) + "\n", args.output, stdout)
    return 0 if report.ok else 1


def run(argv, stdout: IO[str] | None = None,
        stderr: IO[str] | None = None) -> int:
    """Execute one command line; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        stderr.write(f"{parser.prog}: error: {exc}\n")
        stderr.write(parser.format_usage())
        return 2
    if args.command is None:
        stderr.write(parser.format_usage())
        return 2
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        stderr.write(f"config error: {exc}\n")
        return 2
    except OSError as exc:
        stderr.write(f"cannot read config: {exc}\n")
        return 2
    try:
        if args.command == "coverage":
            return _run_coverage(args, cfg, stdout)
        if args.command == "simulate":
            return _run_simulate(args, cfg, stdout)
        if args.command == "sweep":
            return _run_sweep(args, cfg, stdout, stderr)
        return _run_validate(args, cfg, stdout)
    except ConfigError as exc:
        stderr.write(f"config error: {exc}\n")
        return 2
    except _COMPUTE_ERRORS as exc:
        stderr.write(f"computation failed: {exc}\n")
        return 1
    except OSError as exc:
        stderr.write(f"output failed: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
