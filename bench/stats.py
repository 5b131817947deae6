"""Summary statistics the benchmark reports.  Standard library only."""

from __future__ import annotations

import math
import statistics

# Tail percentiles considered, in per mille, lowest first.
_TAIL_LADDER = (750, 900, 950, 990, 999)
MIN_TAIL_SAMPLES = 40
MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def _rank(n: int, per_mille: int) -> int:
    # Nearest-rank position (1-based) of the percentile.
    return -(-n * per_mille // 1000)


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile, in per mille, that leaves at least ten
    samples beyond it; ``None`` below forty samples, where any percentile
    would be no tail and the median is reported alone."""
    if n < MIN_TAIL_SAMPLES:
        return None
    best = None
    for per_mille in _TAIL_LADDER:
        if n - _rank(n, per_mille) >= MIN_BEYOND:
            best = per_mille
    return best


def percentile(values, per_mille: int) -> float:
    ordered = sorted(values)
    return ordered[_rank(len(ordered), per_mille) - 1]


def tail_name(per_mille: int) -> str:
    return f"p{per_mille // 10}" if per_mille % 10 == 0 else \
        f"p{per_mille / 10:g}"


def summarize(values) -> dict:
    """Sample count, median and quartiles, plus the tail percentile when
    there are enough samples for one."""
    values = list(values)
    q1, q2, q3 = quartiles(values)
    out = {"n": len(values), "median": q2, "q1": q1, "q3": q3}
    tail = tail_percentile(len(values))
    if tail is not None:
        out[tail_name(tail)] = percentile(values, tail)
    return out


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Children may overlap one another
    (concurrent work) or stick out of their parent; each instant of the
    parent's interval is subtracted at most once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c_end, end))
        out.append((end - start) - covered)
    return out
