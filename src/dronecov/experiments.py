"""Parameter sweeps, figure-style presets and the cross-check matrix.

A sweep evaluates coverage over a one- or two-axis grid of scenario
parameters with any mix of methods, collecting one row per grid point
per method.  Failures of a single method at a single point (for example
a fading order beyond the analytic recursion limit) are recorded in
that row and the sweep continues.

Monte Carlo rows run the same :class:`SimulationSpec` at every grid
point, seed included.  That makes runs deterministic and keeps the same
sampled base-station fields across neighbouring points (common random
numbers), so curve shapes and crossings are far less noisy than with
independent seeds.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .analytic import (NetworkScenario, QuadratureSpec, conditional_coverage,
                       coverage_probability, laplace_derivatives,
                       laplace_interference, mean_interference)
from .config import builtin_environments, default_scenario
from .errors import (CapabilityError, ConfigError, DomainError,
                     QuadratureError)
from .montecarlo import SimulationSpec, estimate_coverage, laplace_empirical

__all__ = [
    "CheckReport",
    "METHODS",
    "SweepAxis",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "ValidationCheck",
    "ValidationReport",
    "crossing_points",
    "figure2_check",
    "figure3_check",
    "figure4_check",
    "figure2_preset",
    "figure3_preset",
    "figure4_preset",
    "sweep",
    "validate",
]

METHODS = ("analytic", "monte-carlo")

_ROW_ERRORS = (CapabilityError, DomainError, QuadratureError, ValueError)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_unconditioned(sim: SimulationSpec) -> None:
    # Analytic rows and the coverage check are unconditional, so a spec
    # that pins the serving station or its state would compare unlike
    # quantities.
    if (sim.fixed_serving_distance is not None
            or sim.force_serving_los is not None):
        raise ConfigError("the simulation spec must not pin the serving "
                          "station or its state")


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a dotted field path (or a tuple of paths that
    move together) and the grid of values to visit.

    Numeric grids must be strictly monotone and label themselves; grids
    of structured values (channel blocks, environments, path tuples)
    need explicit unique ``labels`` since they have no natural order.
    """

    parameter: str | tuple[str, ...]
    values: tuple
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("sweep axis needs at least one value")
        if isinstance(self.parameter, tuple):
            if not self.parameter:
                raise ConfigError("composite sweep axis needs at least "
                                  "one parameter path")
            arity = len(self.parameter)
            for value in self.values:
                if not isinstance(value, tuple) or len(value) != arity:
                    raise ConfigError(
                        f"composite axis values must be {arity}-tuples, "
                        f"got {value!r}")
        numeric = all(_is_number(v) for v in self.values)
        if numeric:
            diffs = np.diff(np.asarray(self.values, dtype=float))
            if diffs.size and not (np.all(diffs > 0.0)
                                   or np.all(diffs < 0.0)):
                raise ConfigError("numeric sweep grid must be strictly "
                                  "monotone")
        elif self.labels is None:
            raise ConfigError("non-numeric sweep grid needs labels")
        if self.labels is not None:
            if len(self.labels) != len(self.values):
                raise ConfigError("labels must match values one to one")
            if len(set(self.labels)) != len(self.labels):
                raise ConfigError("axis labels must be unique")
            for label in self.labels:
                if not label or any(c in label for c in ',"\n\r'):
                    raise ConfigError(
                        f"label {label!r} is empty or not CSV-safe")

    @property
    def paths(self) -> tuple[str, ...]:
        """The dotted field paths the axis sets, one for a plain axis."""
        return (self.parameter if isinstance(self.parameter, tuple)
                else (self.parameter,))

    def label(self, index: int):
        """Row value for CSV and curve lookup: the float itself for
        numeric grids, the configured label otherwise."""
        if self.labels is not None:
            return self.labels[index]
        return float(self.values[index])


@dataclass(frozen=True)
class SweepSpec:
    """Complete description of one sweep run: the grid, the methods, and
    the settings of each route."""

    base: NetworkScenario
    axes: tuple[SweepAxis, ...]
    methods: tuple[str, ...] = ("analytic",)
    simulation: SimulationSpec = SimulationSpec()
    quadrature: QuadratureSpec = QuadratureSpec()

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError("a sweep takes one or two axes, got "
                              f"{len(self.axes)}")
        if not self.methods:
            raise ConfigError("a sweep needs at least one method")
        for name in self.methods:
            if name not in METHODS:
                raise ConfigError(
                    f"unknown method {name!r} (choose from "
                    f"{', '.join(METHODS)})")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method in sweep spec")
        _require_unconditioned(self.simulation)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.axes)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated (grid point, method) cell.

    ``param_1``/``param_2`` hold the axis value for numeric grids and
    the axis label for structured grids; ``param_2`` is ``None`` on
    one-axis sweeps.  Failed cells keep NaN results plus a message.
    """

    param_1: float | str
    param_2: float | str | None
    method: str
    probability: float
    error_estimate: float
    wall_time_s: float
    ok: bool = True
    message: str = ""


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    def curve(self, method: str, param_2: float | str | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Successful rows of one method (and one second-axis slice, if
        any) as ``(x, probability, error)`` sorted by ascending x.

        Requires the first axis to be numeric; structured first axes
        have no x coordinate to plot against.
        """
        if self.spec.axes[0].labels is not None:
            raise ConfigError("first sweep axis has no numeric values")
        picked = [(row.param_1, row.probability, row.error_estimate)
                  for row in self.rows
                  if row.ok and row.method == method
                  and row.param_2 == param_2]
        if not picked:
            raise ConfigError(
                f"no successful rows for method {method!r}, "
                f"slice {param_2!r}")
        x, p, err = (np.asarray(col, dtype=float)
                     for col in zip(*picked))
        order = np.argsort(x)
        return x[order], p[order], err[order]

    @property
    def failures(self) -> tuple[SweepRow, ...]:
        return tuple(row for row in self.rows if not row.ok)


# ---------------------------------------------------------------- engine

def _check_path(base: NetworkScenario, path: str) -> None:
    obj = base
    parts = path.split(".")
    for depth, part in enumerate(parts):
        if not is_dataclass(obj) or part not in {
                f.name for f in fields(obj)}:
            raise ConfigError(f"unknown sweep parameter {path!r}")
        if depth < len(parts) - 1:
            obj = getattr(obj, part)


def _with_value(obj, path: str, value):
    head, _, rest = path.partition(".")
    if rest:
        return replace(obj, **{head: _with_value(getattr(obj, head),
                                                 rest, value)})
    return replace(obj, **{head: value})


def _apply_axis(scn: NetworkScenario, axis: SweepAxis,
                index: int) -> NetworkScenario:
    values = (axis.values[index] if isinstance(axis.parameter, tuple)
              else (axis.values[index],))
    for path, value in zip(axis.paths, values):
        scn = _with_value(scn, path, value)
    return scn


def validate_spec(spec: SweepSpec) -> None:
    """Reject bad parameter paths before any evaluation starts."""
    for axis in spec.axes:
        for path in axis.paths:
            _check_path(spec.base, path)


def _evaluate_cell(scn: NetworkScenario, method: str,
                   spec: SweepSpec, mc_workers: int
                   ) -> tuple[float, float]:
    if method == "analytic":
        res = coverage_probability(scn, spec.quadrature)
        return res.probability, res.error_estimate
    est = estimate_coverage(scn, spec.simulation, workers=mc_workers)
    return est.probability, est.std_error


def _evaluate_point(spec: SweepSpec, indices: tuple[int, ...],
                    mc_workers: int = 1) -> list[SweepRow]:
    p1 = spec.axes[0].label(indices[0])
    p2 = spec.axes[1].label(indices[1]) if len(spec.axes) == 2 else None
    try:
        scn = spec.base
        for axis, index in zip(spec.axes, indices):
            scn = _apply_axis(scn, axis, index)
        scenario_error = None
    except _ROW_ERRORS as exc:
        scenario_error = str(exc)
    rows = []
    for method in spec.methods:
        start = time.perf_counter()
        if scenario_error is not None:
            rows.append(SweepRow(p1, p2, method, math.nan, math.nan, 0.0,
                                 ok=False, message=scenario_error))
            continue
        try:
            prob, err = _evaluate_cell(scn, method, spec, mc_workers)
            rows.append(SweepRow(p1, p2, method, prob, err,
                                 time.perf_counter() - start))
        except _ROW_ERRORS as exc:
            rows.append(SweepRow(p1, p2, method, math.nan, math.nan,
                                 time.perf_counter() - start,
                                 ok=False, message=str(exc)))
    return rows


def _point_worker(args) -> list[SweepRow]:
    spec, indices = args
    return _evaluate_point(spec, indices)


def _grid_indices(spec: SweepSpec) -> list[tuple[int, ...]]:
    if len(spec.axes) == 1:
        return [(i,) for i in range(len(spec.axes[0].values))]
    return [(i, j) for i in range(len(spec.axes[0].values))
            for j in range(len(spec.axes[1].values))]


def sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the grid with every requested method.

    Rows come back in grid order (first axis outermost, methods
    innermost) no matter how many workers run; per-cell failures are
    recorded in their rows without stopping the sweep.  Workers spread
    across grid points, except that a single-point sweep hands them to
    the Monte Carlo estimator instead.
    """
    validate_spec(spec)
    points = _grid_indices(spec)
    if workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=min(workers,
                                                 len(points))) as pool:
            chunks = pool.map(_point_worker,
                              [(spec, indices) for indices in points],
                              chunksize=max(1, len(points) // (4 * workers)))
            rows = tuple(row for chunk in chunks for row in chunk)
    else:
        mc_workers = workers if len(points) == 1 else 1
        rows = tuple(row for indices in points
                     for row in _evaluate_point(spec, indices, mc_workers))
    return SweepResult(spec=spec, rows=rows)


# --------------------------------------------------------------- presets

_FADING_AXIS = SweepAxis(
    parameter=("channel.m_los", "channel.m_nlos"),
    values=((1, 1), (3, 1), (100, 100)),
    labels=("m1-1", "m3-1", "m100-100"))


def _altitude_grid(stop: float) -> tuple[float, ...]:
    return (1.5, 5.0) + tuple(np.arange(10.0, stop + 0.5, 10.0))


def figure2_preset() -> SweepSpec:
    """Altitude sweep of coverage under three fading configurations.

    The m1-1 rows give the single-exponential baseline, m3-1 the
    default mixed fading, and m100-100 a nearly fading-free proxy.  The
    last exceeds the analytic recursion limit, so its analytic rows are
    recorded as failures and only the Monte Carlo rows carry values.
    """
    return SweepSpec(
        base=default_scenario(),
        axes=(SweepAxis("ue_height", _altitude_grid(300.0)),
              _FADING_AXIS),
        methods=("analytic", "monte-carlo"))


def _environment_tilt_axis() -> SweepAxis:
    values = []
    labels = []
    for name, env in builtin_environments():
        for tilt in (15.0, 30.0):
            values.append((tilt, env))
            labels.append(f"{name}-t{tilt:.0f}")
    return SweepAxis(parameter=("pattern.downtilt_deg", "env"),
                     values=tuple(values), labels=tuple(labels))


def figure3_preset(user: str) -> SweepSpec:
    """Base-station-height sweep for a ground (1.5 m) or aerial (60 m)
    user, crossed with two down-tilts and the four built-in
    environments.

    The altitude of each grid choice is an artifact default.  Both
    methods answer every row of either user, the aerial rows whose
    line-of-sight level barely decays included.
    """
    heights = {"ground": 1.5, "aerial": 60.0}
    if user not in heights:
        raise ConfigError(f"user must be 'ground' or 'aerial', "
                          f"got {user!r}")
    return SweepSpec(
        base=replace(default_scenario(), ue_height=heights[user]),
        axes=(SweepAxis("bs_height",
                        tuple(np.arange(10.0, 151.0, 10.0))),
              _environment_tilt_axis()),
        methods=("analytic", "monte-carlo"))


def figure4_preset() -> SweepSpec:
    """Altitude sweep for three down-tilt values (10, 20, 30 degrees,
    an artifact default) at the reference scenario."""
    return SweepSpec(
        base=default_scenario(),
        axes=(SweepAxis("ue_height", _altitude_grid(150.0)),
              SweepAxis("pattern.downtilt_deg", (10.0, 20.0, 30.0))),
        methods=("analytic",))


# ------------------------------------------------------ qualitative checks

@dataclass(frozen=True)
class CheckReport:
    """Outcome of one qualitative curve check."""

    name: str
    status: str  # "pass", "fail" or "inconclusive"
    details: dict = field(default_factory=dict)


def crossing_points(x, ya, yb) -> list[float]:
    """Locations where two curves sampled on a common grid cross, by
    linear interpolation of their difference."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(ya, dtype=float) - np.asarray(yb, dtype=float)
    if x.shape != d.shape:
        raise DomainError("curves must share one grid")
    out = []
    for i in range(d.size - 1):
        lo, hi = d[i], d[i + 1]
        if lo == 0.0:
            if i == 0 or d[i - 1] != 0.0:
                out.append(float(x[i]))
        elif lo * hi < 0.0:
            out.append(float(x[i] + (x[i + 1] - x[i]) * lo / (lo - hi)))
    if d.size and d[-1] == 0.0 and (d.size == 1 or d[-2] != 0.0):
        out.append(float(x[-1]))
    return out


def _shape_status(x, p, err) -> tuple[str, dict]:
    # Rise to an interior low-altitude peak, then a decay, within error.
    peak = int(np.argmax(p))
    details = {"peak_m": float(x[peak]), "peak_probability": float(p[peak])}
    if peak == 0 or p[peak] <= p[0] + 3.0 * (err[peak] + err[0]):
        return "fail", {**details, "reason": "no initial rise"}
    if x[peak] > 30.0:
        return "fail", {**details, "reason": "peak beyond modest altitude"}
    wiggle = 3.0 * (err[:-1] + err[1:]) + 1e-12
    drops = np.diff(p[peak:]) > wiggle[peak:]
    if np.any(drops):
        bad = int(np.argmax(drops)) + peak
        return "fail", {**details, "reason": "rise after peak",
                        "at_m": float(x[bad + 1])}
    return "pass", details


# figure2: the window of user heights (m) searched for the crossing, and
# the height it is expected at with its allowed distance.
_FIGURE2_WINDOW = (30.0, 150.0)
_FIGURE2_CROSSING = (80.0, 30.0)


def figure2_check(result: SweepResult) -> CheckReport:
    """Check the altitude-sweep signature: the single-exponential curve
    crosses the mixed-fading curve exactly once between 30 and 150 m,
    within 30 m of 80 m, and both curves rise to a modest-altitude peak
    before decaying."""
    x1, p1, e1 = result.curve("analytic", "m1-1")
    x3, p3, e3 = result.curve("analytic", "m3-1")
    if x1.size != x3.size or np.any(x1 != x3):
        return CheckReport("figure2", "inconclusive",
                           {"reason": "curves on different grids"})
    lo, hi = _FIGURE2_WINDOW
    mask = (x1 >= lo) & (x1 <= hi)
    details: dict = {}
    gap_lo = float(p3[mask][0] - p1[mask][0])
    gap_hi = float(p1[mask][-1] - p3[mask][-1])
    noise = 3.0 * float(np.max(e1 + e3))
    details.update(gap_at_window_start=gap_lo, gap_at_window_end=gap_hi,
                   noise_band=noise)
    if min(gap_lo, gap_hi) <= noise:
        return CheckReport("figure2", "inconclusive",
                           {**details,
                            "reason": "ordering gap within error"})
    crossings = [c for c in crossing_points(x1, p1, p3)
                 if lo <= c <= hi]
    details["crossings_m"] = crossings
    if len(crossings) != 1:
        return CheckReport("figure2", "fail",
                           {**details, "reason": "need exactly one "
                            "crossing in window"})
    center, band = _FIGURE2_CROSSING
    if abs(crossings[0] - center) > band:
        return CheckReport("figure2", "fail",
                           {**details,
                            "reason": "crossing outside expected band"})
    for label, (x, p, err) in (("m1-1", (x1, p1, e1)),
                               ("m3-1", (x3, p3, e3))):
        status, shape = _shape_status(x, p, err)
        details[f"shape_{label}"] = shape
        if status != "pass":
            return CheckReport("figure2", status, details)
    return CheckReport("figure2", "pass", details)


# figure3: the total variation a plateau may always have, whatever its
# rows' errors, and the fewest grid points a plateau spans.
_FIGURE3_TOL = 5e-3
_FIGURE3_MIN_TAIL = 3


def figure3_check(result: SweepResult, slice_label: str) -> CheckReport:
    """Plateau check for one Monte Carlo height-sweep curve: after the
    last statistically significant change, the remaining total variation
    must stay below tolerance.  A curve still changing at the end of
    the grid is inconclusive."""
    x, p, err = result.curve("monte-carlo", slice_label)
    steps = np.abs(np.diff(p))
    sig = 3.0 * (err[:-1] + err[1:]) + 1e-12
    significant = np.nonzero(steps > sig)[0]
    start = int(significant[-1]) + 1 if significant.size else 0
    tail = p[start:]
    details = {"plateau_start_m": float(x[start]),
               "tail_points": int(tail.size)}
    if tail.size < _FIGURE3_MIN_TAIL:
        return CheckReport("figure3", "inconclusive",
                           {**details,
                            "reason": "still changing at grid end"})
    variation = float(np.sum(np.abs(np.diff(tail))))
    allowed = max(_FIGURE3_TOL, 3.0 * float(np.sum(
        np.hypot(err[start:-1], err[start + 1:]))))
    details.update(total_variation=variation, allowed=allowed)
    status = "pass" if variation <= allowed else "fail"
    return CheckReport("figure3", status, details)


def figure4_check(result: SweepResult) -> CheckReport:
    """Check that every tilt's coverage-maximizing altitude stays below
    three times the base-station height.  Peaks that sit at the grid
    boundary or are ambiguous within error come back inconclusive with
    diagnostics, never silently passed."""
    bound = 3.0 * result.spec.base.bs_height
    axis2 = result.spec.axes[1] if len(result.spec.axes) == 2 else None
    slices = ([axis2.label(i) for i in range(len(axis2.values))]
              if axis2 is not None else [None])
    details: dict = {"bound_m": bound}
    status = "pass"
    for label in slices:
        x, p, err = result.curve("analytic", label)
        peak = int(np.argmax(p))
        near = p >= p[peak] - 3.0 * (err + err[peak])
        candidates = x[near]
        info = {"peak_m": float(x[peak]),
                "candidates_m": [float(v) for v in candidates]}
        if peak == x.size - 1:
            info["reason"] = "peak at grid boundary"
            status = "inconclusive"
        elif not np.all(candidates <= bound):
            info["reason"] = "peak candidates beyond bound"
            status = "inconclusive"
        details[str(label)] = info
    return CheckReport("figure4", status, details)


# ----------------------------------------------------------- validation

# Largest relative gap between the transform derivatives and their finite
# differences, and largest deviation of a simulated value, in standard
# errors, that the cross-checks pass.
_DERIVATIVE_REL_TOL = 1e-4
_SIGMA = 3.0


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def _median_serving_distance(scn: NetworkScenario) -> float:
    return math.sqrt(math.log(2.0) / (math.pi * scn.bs_density))


def _check_closed_form(scn, quad) -> ValidationCheck:
    # Exponent 4, Rayleigh, unit gains, equal heights: 1 / (1 + sqrt(T)
    # atan(sqrt(T))) (Andrews, Baccelli, Ganti, IEEE TCOM 59(11), 2011).
    res = coverage_probability(replace(
        scn, ue_height=scn.bs_height, channel=replace(
            scn.channel, alpha_los=4.0, alpha_nlos=4.0, m_los=1, m_nlos=1,
            intercept_nlos=scn.channel.intercept_los),
        pattern=replace(scn.pattern, gain_main=1.0, gain_side=1.0)), quad)
    root = math.sqrt(scn.sir_threshold)
    exact = 1.0 / (1.0 + root * math.atan(root))
    dev = abs(res.probability - exact)
    return ValidationCheck(
        "closed form at exponent 4", dev <= res.error_estimate, dev,
        res.error_estimate, f"analytic={res.probability!r} exact={exact!r}")


def _check_derivatives(scn, quad) -> ValidationCheck:
    r0 = _median_serving_distance(scn)
    s0 = 1.0 / mean_interference(scn, r0, quad)
    vals = laplace_derivatives(scn, r0, s0, 2, quad)
    h1 = 1e-4 * s0
    fd1 = (laplace_interference(scn, r0, s0 + h1, quad)
           - laplace_interference(scn, r0, s0 - h1, quad)) / (2.0 * h1)
    h2 = 1e-3 * s0
    fd2 = (laplace_interference(scn, r0, s0 + h2, quad)
           - 2.0 * laplace_interference(scn, r0, s0, quad)
           + laplace_interference(scn, r0, s0 - h2, quad)) / (h2 * h2)
    rel = max(abs(fd1 - vals[1]) / abs(vals[1]),
              abs(fd2 - vals[2]) / abs(vals[2]))
    return ValidationCheck(
        "transform derivatives vs finite differences",
        rel <= _DERIVATIVE_REL_TOL, rel, _DERIVATIVE_REL_TOL,
        f"orders 1-2 at r0={r0:.1f} s={s0:.4g}")


def _check_coverage_mc(scn, quad, sim, workers) -> ValidationCheck:
    res = coverage_probability(scn, quad)
    est = estimate_coverage(scn, sim, workers=workers)
    scale = math.hypot(max(est.std_error, 3.0 / sim.num_drops),
                       res.error_estimate)
    dev = abs(res.probability - est.probability) / scale
    return ValidationCheck(
        "coverage vs simulation", dev <= _SIGMA, dev, _SIGMA,
        f"analytic={res.probability:.6f} "
        f"simulated={est.probability:.6f}+-{est.std_error:.6f}")


def _check_conditional_mc(scn, quad, sim, workers) -> ValidationCheck:
    name = "conditional coverage vs simulation"
    r0 = _median_serving_distance(scn)
    prob = conditional_coverage(scn, r0, True, quad)
    try:
        est = estimate_coverage(scn, replace(sim, fixed_serving_distance=r0,
                                             force_serving_los=True),
                                workers=workers)
    except DomainError as exc:
        # A pinned distance outside a configured disk fails this check
        # only, not the whole matrix.
        return ValidationCheck(name, False, math.nan, _SIGMA, str(exc))
    dev = (abs(prob - est.probability)
           / max(est.std_error, 3.0 / sim.num_drops))
    return ValidationCheck(
        name, dev <= _SIGMA, dev, _SIGMA,
        f"r0={r0:.1f} analytic={prob:.6f} "
        f"simulated={est.probability:.6f}+-{est.std_error:.6f}")


def _check_laplace_mc(scn, quad, sim) -> ValidationCheck:
    name = "interference transform vs empirical mean"
    r0 = _median_serving_distance(scn)
    s0 = 1.0 / mean_interference(scn, r0, quad)
    s_values = np.array([0.5, 1.0, 2.0]) * s0
    try:
        means, errs = laplace_empirical(
            scn, replace(sim, fixed_serving_distance=r0), s_values)
    except DomainError as exc:
        return ValidationCheck(name, False, math.nan, _SIGMA, str(exc))
    dev = 0.0
    for s, mean, err in zip(s_values, means, errs):
        exact = laplace_interference(scn, r0, float(s), quad)
        dev = max(dev, abs(exact - mean)
                  / max(err, 1.0 / sim.num_drops))
    return ValidationCheck(
        name, dev <= _SIGMA, dev, _SIGMA,
        f"r0={r0:.1f}, 3 transform arguments")


def validate(scn: NetworkScenario | None = None,
             sim: SimulationSpec = SimulationSpec(),
             quad: QuadratureSpec = QuadratureSpec(),
             workers: int = 1) -> ValidationReport:
    """Run the internal cross-check matrix on one scenario.

    Four checks compare two routes inside this package and one a closed
    form on the scenario reduced to exponent 4, so the report gauges
    self-consistency, not the scenario's physics.  Every simulating
    check runs ``sim``, the coverage check as given and the conditional
    and transform checks pinned to the median serving distance, so
    ``sim`` itself must be unconditioned.  Check failures land in the
    report, a pinned distance outside ``sim``'s disk among them; only
    unusable inputs raise.
    """
    _require_unconditioned(sim)
    scn = scn if scn is not None else default_scenario()
    checks = (
        _check_closed_form(scn, quad),
        _check_derivatives(scn, quad),
        _check_coverage_mc(scn, quad, sim, workers),
        _check_conditional_mc(scn, quad, sim, workers),
        _check_laplace_mc(scn, quad, sim),
    )
    return ValidationReport(checks=checks)
