"""The benchmark's own arithmetic, checked without running a workload.

    python3 -m pytest bench
"""

import math
import statistics

import pytest

import stats
import tracing


def test_median_and_quartiles_follow_statistics_module():
    values = [7.0, 1.0, 3.0, 5.0, 9.0, 2.0]
    assert stats.median(values) == 4.0
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_geomean():
    assert stats.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0, rel=1e-15)


@pytest.mark.parametrize("n, expected", [
    (1, None), (39, None), (40, 750), (99, 750), (100, 900), (120, 900),
    (199, 900), (200, 950), (999, 950), (1000, 990), (10000, 999)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [40, 57, 100, 120, 240, 1000, 12345])
def test_reported_tail_has_ten_samples_beyond_and_next_does_not(n):
    values = [float(i) for i in range(n)]
    per_mille = stats.tail_percentile(n)
    cut = stats.percentile(values, per_mille)
    assert sum(v > cut for v in values) >= 10
    higher = [p for p in (750, 900, 950, 990, 999) if p > per_mille]
    for p in higher:
        assert sum(v > stats.percentile(values, p) for v in values) < 10


def test_summary_gives_median_alone_below_forty_samples():
    few = stats.summarize(range(1, 40))
    assert set(few) == {"n", "median", "q1", "q3"}
    assert few["median"] == 20
    many = stats.summarize(range(1, 121))
    assert many["p90"] == 108
    assert stats.tail_name(999) == "p99.9"


def test_self_time_without_children_is_duration():
    assert stats.self_times([(1.0, 3.5, -1)]) == [2.5]


def test_self_time_subtracts_nested_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 6.0, 0)]
    assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # Children [1, 4] and [3, 6] overlap on [3, 4]; [9, 12] sticks out of
    # the parent, which only loses [9, 10].
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (9.0, 12.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_with_child_inside_earlier_longer_child():
    spans = [(0.0, 10.0, -1), (1.0, 8.0, 0), (2.0, 3.0, 0), (9.0, 9.5, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 0.5)


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_tracer_records_parents_and_attrs():
    tr = tracing.Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 5.0, 6.0, 7.0]))
    inner = tr.wrap("channel.f", lambda x: x + 1, lambda args, out: {
        "points": out})
    outer = tr.wrap("analytic.g", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert tr.spans == [["analytic.g", -1, 0.0, 5.0, None],
                        ["channel.f", 0, 1.0, 2.0, {"points": 4}]]
    tr.start_round()
    inner(0)
    assert tr.last_round() == [["channel.f", -1, 0, 1_000_000,
                                {"points": 1}]]


class _Result:
    def __init__(self, nodes):
        self.num_evals, self.num_panels, self.rounds = nodes, nodes // 24, 1


def test_layer_metrics_split_outer_and_nested_integrals():
    t = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(t)))

    def integrate_family(f, nodes):
        f(nodes)
        return _Result(nodes)

    quad = tr.wrap_quadrature(integrate_family)
    curves = tr.wrap("channel.path_loss_curves", lambda n: n,
                     lambda args, out: {"points": out})
    run = tr.wrap("analytic.coverage_probability",
                  lambda: quad(lambda n: quad(lambda m: curves(m), 240), 48))
    run()
    root = tr.spans[0]
    out = tracing.layer_metrics(tr.spans, wall=root[3] - root[2], rounds=1)
    assert out["quadrature.calls"] == 2
    assert out["analytic.inner_integrations"] == 1
    assert out["analytic.outer_nodes"] == 48
    assert out["analytic.inner_nodes"] == 240
    assert out["channel.path_loss_curves.points"] == 240
    # Every instant of the root span belongs to exactly one share.
    shares = sum(v for k, v in out.items() if k.endswith("_pct"))
    assert shares == pytest.approx(100.0)
    # The outer callback's own time is analytic work outside the inner
    # integrands; the inner callback's is integrand time.
    outer_cb, inner_cb = (i for i, s in enumerate(tr.spans)
                          if s[0] == tracing.INTEGRAND)
    self_s = stats.self_times([(s[2], s[3], s[1]) for s in tr.spans])
    wall = root[3] - root[2]
    assert out["analytic.integrand_pct"] == pytest.approx(
        100.0 * self_s[inner_cb] / wall)
    assert out["analytic.self_pct"] == pytest.approx(
        100.0 * (self_s[0] + self_s[outer_cb]) / wall)
    assert out["montecarlo.self_pct"] == 0.0


def test_counts_are_reported_per_round():
    spans = [["quadrature.integrate_family", -1, 0.0, 1.0,
              {"nodes": 24, "panels": 1, "rounds": 0}]] * 3
    out = tracing.layer_metrics(spans, wall=3.0, rounds=3)
    assert out["quadrature.nodes"] == 24 and isinstance(
        out["quadrature.nodes"], int)
    assert math.isclose(out["quadrature.self_pct"], 100.0)


def test_tracing_the_package_changes_no_result_and_restores_names():
    import pinning  # noqa: F401  (puts the checkout's src on the path)
    import dronecov
    import scenarios
    scn = scenarios.abg_scenario(4.0, 1.0)
    plain = dronecov.coverage_probability(scn)
    before = dict(vars(dronecov.analytic))
    tr = tracing.Tracer()
    with tr.installed(dronecov):
        assert dronecov.analytic.integrate_family is not \
            before["integrate_family"]
        traced = tr.wrap("analytic.coverage_probability",
                         dronecov.coverage_probability)(scn)
    assert vars(dronecov.analytic) == before
    assert traced.probability == plain.probability
    out = tracing.layer_metrics(tr.spans, wall=1.0, rounds=1)
    assert out["analytic.inner_integrations"] > 0
    assert out["quadrature.nodes"] == (out["analytic.outer_nodes"]
                                       + out["analytic.inner_nodes"])
