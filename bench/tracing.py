"""In-memory spans around the calls between dronecov's layers.

The tracer never edits the package: it rebinds the names a calling module
imported from another module (``analytic.integrate_family``,
``experiments.coverage_probability``, ...) to wrappers that record a span
and then call the original.  Spans form a tree through their parent index,
kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager

import stats

# caller module -> modules whose functions it calls and that are traced.
# channel's own use of quadrature (inside the step-table asymptotics) stays
# inside the channel.los_step_levels span.
LAYER_CALLS = {
    "experiments": ("analytic", "montecarlo"),
    "analytic": ("quadrature", "channel"),
    "montecarlo": ("channel",),
}

# Monte Carlo stages called within montecarlo itself, traced the same way.
MC_STAGES = ("sample_network", "compute_sir", "default_disk_radius")

QUAD = "quadrature.integrate_family"
INTEGRAND = "analytic.integrand"


class Tracer:
    """Collects spans ``[name, parent, start, end, attrs]``; ``parent`` is
    the index of the enclosing span, or -1."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._round_start = 0

    def reset(self) -> None:
        """Drop every span recorded so far (between calls only)."""
        self.spans.clear()
        self._round_start = 0

    def start_round(self) -> None:
        self._round_start = len(self.spans)

    def last_round(self) -> list[list]:
        """Spans recorded since the last ``start_round``, parents
        re-indexed to the returned list and times in whole microseconds
        from the round's first span."""
        base = self._round_start
        spans = self.spans[base:]
        t0 = spans[0][2] if spans else 0.0
        return [[name, parent - base if parent >= 0 else -1,
                 round(1e6 * (start - t0)), round(1e6 * (end - t0)), attrs]
                for name, parent, start, end, attrs in spans]

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)``
        annotates the span once the call has returned."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, out)
            return out

        return traced

    def wrap_quadrature(self, fn):
        """``integrate_family`` with its integrand callback traced too."""
        inner = self.wrap(QUAD, fn, lambda args, res: {
            "nodes": res.num_evals, "panels": res.num_panels,
            "rounds": res.rounds})

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            return inner(self.wrap(INTEGRAND, f), *args, **kwargs)

        return traced

    @contextmanager
    def installed(self, package):
        """Rebind the traced names in ``package``'s modules for the
        duration of the block."""
        targets = []
        for caller_name, callees in LAYER_CALLS.items():
            caller = getattr(package, caller_name)
            layers = {f"{package.__name__}.{c}": c for c in callees}
            for attr, value in vars(caller).items():
                if (isinstance(value, types.FunctionType)
                        and value.__module__ in layers):
                    targets.append((caller, attr, layers[value.__module__]))
        targets += [(package.montecarlo, attr, "montecarlo")
                    for attr in MC_STAGES]
        saved = []
        for module, attr, layer in targets:
            value = getattr(module, attr)
            name = f"{layer}.{attr}"
            saved.append((module, attr, value))
            setattr(module, attr, self.wrap_quadrature(value) if name == QUAD
                    else self.wrap(name, value, _ATTRS.get(name)))
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)


_ATTRS = {
    "channel.los_step_levels": lambda args, out: {"k": int(out.size) - 1},
    "channel.path_loss_curves": lambda args, out: {
        "points": int(out[0].size)},
    "montecarlo.sample_network": lambda args, real: {
        "stations": int(real.los.size)},
}


def _quadrature_depth(spans) -> list[int]:
    """Number of integrate_family spans among each span's ancestors and
    itself; 2 or more means an integral nested inside another."""
    depth = [0] * len(spans)
    for i, (name, parent, *_rest) in enumerate(spans):
        depth[i] = (depth[parent] if parent >= 0 else 0) + (name == QUAD)
    return depth


COUNTS = (
    "quadrature.calls", "quadrature.nodes", "quadrature.panels",
    "quadrature.rounds", "analytic.inner_integrations",
    "analytic.outer_nodes", "analytic.inner_nodes",
    "channel.los_step_levels.calls", "channel.los_step_levels.max_k",
    "channel.path_loss_curves.points", "montecarlo.drops",
    "montecarlo.stations")

SHARES = (
    "quadrature.self", "analytic.integrand", "analytic.self",
    "channel.los_step_levels", "channel.path_loss_curves", "channel.other",
    "montecarlo.sample_network", "montecarlo.compute_sir",
    "montecarlo.far_field", "montecarlo.self", "experiments.self")

def layer_metrics(spans, wall: float, rounds: int) -> dict[str, float]:
    """Per-layer work counts per round, and self-time shares in percent
    of ``wall``, the summed duration of the ``rounds`` traced rounds.

    Self times partition the traced time: every instant belongs to the
    innermost span around it (or to the benchmark, outside all spans).
    """
    selfs = stats.self_times([(s[2], s[3], s[1]) for s in spans])
    depth = _quadrature_depth(spans)
    count = dict.fromkeys(COUNTS, 0)
    busy = dict.fromkeys(SHARES, 0.0)
    for i, (name, parent, _start, _end, attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if name == QUAD:
            inner = depth[i] >= 2
            count["quadrature.calls"] += 1
            count["analytic.inner_integrations"] += inner
            if attrs is not None:
                count["quadrature.nodes"] += attrs["nodes"]
                count["quadrature.panels"] += attrs["panels"]
                count["quadrature.rounds"] += attrs["rounds"]
                count["analytic.inner_nodes" if inner
                      else "analytic.outer_nodes"] += attrs["nodes"]
        elif name == "channel.los_step_levels":
            count["channel.los_step_levels.calls"] += 1
            count["channel.los_step_levels.max_k"] = max(
                count["channel.los_step_levels.max_k"], attrs["k"])
        elif name == "channel.path_loss_curves":
            count["channel.path_loss_curves.points"] += attrs["points"]
        elif name == "montecarlo.sample_network":
            count["montecarlo.drops"] += 1
            count["montecarlo.stations"] += attrs["stations"]
        if name == INTEGRAND:
            key = ("analytic.integrand" if depth[parent] >= 2
                   else "analytic.self")
        elif name == "montecarlo.default_disk_radius":
            key = "montecarlo.far_field"
        elif name in SHARES:
            key = name
        elif layer == "quadrature":
            key = "quadrature.self"
        elif layer == "channel":
            key = "channel.other"
        elif layer in ("analytic", "montecarlo", "experiments"):
            key = f"{layer}.self"
        else:
            continue
        busy[key] += selfs[i]
    out: dict[str, float] = {
        key: value if key.endswith("max_k") else _per_round(value, rounds)
        for key, value in count.items()}
    out.update({f"{key}_pct": 100.0 * value / wall
                for key, value in busy.items()})
    return out


def _per_round(value: int, rounds: int):
    per = value / rounds
    return int(per) if per == int(per) else per


def op_counts(spans, rounds: int) -> dict[str, tuple]:
    """Per benchmark operation (root span ``bench:<label>``): integrand
    nodes and nested integrations per round."""
    root = [0] * len(spans)
    depth = _quadrature_depth(spans)
    out: dict[str, list[int]] = {}
    for i, (name, parent, _start, _end, attrs) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if name == QUAD and attrs is not None:
            label = spans[root[i]][0].split(":", 1)[-1]
            counts = out.setdefault(label, [0, 0])
            counts[0] += attrs["nodes"]
            counts[1] += depth[i] >= 2
    return {label: (_per_round(n, rounds), _per_round(k, rounds))
            for label, (n, k) in out.items()}
