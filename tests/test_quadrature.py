"""Tests for the panel integration engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dronecov.errors import DomainError, QuadratureError
from dronecov.quadrature import (_GAUSS, _KRONROD, _NODES, CHEB_NODES,
                                 build_edges, chebyshev_nodes,
                                 integrate_steps, kronrod_panels,
                                 step_panels)

TOLS = {"rel_tol": 1e-10, "abs_tol": 1e-12}


def integrate_kronrod(f, edges, **kwargs):
    # G7/K15 panels on the edges through the one driver; f maps a flat
    # array of abscissas to one function's values or to a family's rows.
    def family(data, owner, weighted):
        x = data[0]
        return np.asarray(f(x.ravel()), dtype=float).reshape(-1, *x.shape)
    return integrate_steps(family, kronrod_panels(edges[:-1], edges[1:]),
                           kronrod_panels, **kwargs)[0]


def test_polynomial_exact():
    res = integrate_kronrod(lambda x: 3.0 * x * x, build_edges(0.0, 2.0),
                            **TOLS)
    assert_allclose(res.value, 8.0, rtol=1e-14)
    assert res.error < 1e-12


def test_exponential():
    res = integrate_kronrod(np.exp, build_edges(0.0, 1.0), **TOLS)
    assert_allclose(res.value, math.e - 1.0, rtol=1e-13)
    assert res.error < 1e-10


def test_split_at_kink():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    res = integrate_kronrod(f, build_edges(0.0, 1.0, [0.3]), **TOLS)
    assert_allclose(res.value, exact, rtol=1e-14)
    # Without the split the refinement loop has to work for it.
    res2 = integrate_kronrod(f, build_edges(0.0, 1.0), rel_tol=1e-9,
                             abs_tol=1e-12)
    assert_allclose(res2.value, exact, rtol=1e-8)
    assert res2.error < 1e-8


def test_step_function_with_matching_edge():
    f = lambda x: np.where(x < 0.25, 2.0, 5.0)
    res = integrate_kronrod(f, build_edges(0.0, 1.0, [0.25]), **TOLS)
    assert_allclose(res.value, 0.25 * 2.0 + 0.75 * 5.0, rtol=1e-14)
    assert res.error < 1e-13


def test_family_shares_refinement():
    def fam(x):
        return np.vstack([np.exp(-x), np.abs(x - 0.6) ** 1.5])
    edges = build_edges(0.0, 1.0)
    res = integrate_kronrod(fam, edges, rel_tol=1e-10, abs_tol=1e-13)
    assert_allclose(res.values[0], 1.0 - math.exp(-1.0), rtol=1e-10)
    exact = (0.6 ** 2.5 + 0.4 ** 2.5) / 2.5
    assert_allclose(res.values[1], exact, rtol=1e-9)
    assert res.num_panels >= 1
    assert res.rounds >= 1  # the kinked member forces subdivision


def test_budget_exhaustion_raises():
    f = lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300))
    with pytest.raises(QuadratureError) as exc:
        integrate_kronrod(f, build_edges(0.0, 1.0), rel_tol=1e-12,
                          abs_tol=1e-14)
    diag = exc.value.diagnostics
    assert diag["num_panels"] >= 1
    assert "worst_panel" in diag


def test_build_edges_filters_interior():
    edges = build_edges(0.0, 10.0, [5.0, -1.0, 12.0, 5.0, 5.0 + 1e-15])
    assert_allclose(edges, [0.0, 5.0, 10.0])
    with pytest.raises(DomainError):
        build_edges(3.0, 3.0)
    with pytest.raises(DomainError):
        build_edges(0.0, math.inf)


def test_many_panels_long_range():
    # Hundreds of split points, as the interference integral produces.
    pts = np.arange(1.0, 500.0, 0.7)
    res = integrate_kronrod(lambda x: x * np.exp(-0.01 * x),
                            build_edges(0.5, 600.0, pts), **TOLS)
    exact = ((0.5 / 0.01 + 1.0 / 0.01 ** 2) * math.exp(-0.01 * 0.5)
             - (600.0 / 0.01 + 1.0 / 0.01 ** 2) * math.exp(-0.01 * 600.0))
    assert_allclose(res.value, exact, rtol=1e-12)
    assert res.error < 1e-6 * abs(exact)


# --------------------------------------------------- the G7/K15 rule itself

def test_rule_nodes_symmetric_inside_interval():
    assert _NODES.size == 15
    assert np.all(np.abs(_NODES) < 1.0)
    assert np.all(np.diff(_NODES) > 0.0)
    assert_allclose(_NODES, -_NODES[::-1], atol=0.0)
    assert_allclose(_KRONROD, _KRONROD[::-1], atol=0.0)
    assert_allclose(_GAUSS, _GAUSS[::-1], atol=0.0)
    # G7 uses every other Kronrod node, starting from the second.
    assert np.all(_GAUSS[1::2] > 0.0) and np.all(_GAUSS[0::2] == 0.0)
    assert np.all(_KRONROD > 0.0)


def test_rule_weights_sum_to_interval_length():
    assert_allclose(_KRONROD.sum(), 2.0, rtol=1e-15)
    assert_allclose(_GAUSS.sum(), 2.0, rtol=1e-15)


@pytest.mark.parametrize("weights, degree",
                         [(_KRONROD, 22), (_GAUSS, 13)], ids=["K15", "G7"])
def test_rule_exact_on_monomials(weights, degree):
    for d in range(degree + 1):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert abs(weights @ _NODES ** d - exact) < 1e-15
    # One degree higher (the next even one) is no longer exact.
    d = degree + 1 if degree % 2 else degree + 2
    assert abs(weights @ _NODES ** d - 2.0 / (d + 1)) > 1e-10


def test_one_panel_degree_13_polynomial():
    # Every coefficient nonzero, so no Gauss-exactness comes for free.
    poly = np.polynomial.Polynomial(1.0 / np.arange(1.0, 15.0))
    res = integrate_kronrod(poly, np.array([-0.5, 1.0]), rel_tol=1e-12,
                            abs_tol=1e-14)
    exact = poly.integ()(1.0) - poly.integ()(-0.5)
    assert_allclose(res.value, exact, rtol=1e-14)
    assert res.error < 1e-14
    assert res.num_panels == 1 and res.rounds == 0
    assert res.num_evals == 15


# ------------------------------------------- the Chebyshev product rule

def _exact_step_integral(f1, f0, lo, hi, step, levels):
    # int v f1 + (1 - v) f0 over [lo, hi], piece by piece, from the
    # antiderivatives of the Chebyshev series f1 and f0.
    cuts = step * np.arange(math.floor(lo / step) + 1,
                            math.ceil(hi / step))
    pts = np.concatenate([[lo], cuts, [hi]])
    k = np.floor(0.5 * (pts[:-1] + pts[1:]) / step).astype(int)
    v = np.where(k < levels.size, levels[np.minimum(k, levels.size - 1)],
                 0.0)
    g1, g0 = f1.integ(), f0.integ()
    return float(np.sum(v * np.diff(g1(pts)) + (1.0 - v) * np.diff(g0(pts))))


def test_step_rule_exact_for_polynomials_under_random_levels():
    rng = np.random.default_rng(7)
    step = 0.173
    levels = np.sort(rng.random(40))[::-1]
    # Many jumps, one level, the jump to zero past the table, no level.
    lo = np.array([0.31, 1.05, 6.7, 7.5])
    hi = np.array([2.93, 1.2, 7.2, 8.1])
    panels = step_panels(lo, hi, chebyshev_nodes(lo, hi)[None], step,
                         levels)
    for _ in range(5):
        for p in range(lo.size):
            # Coefficients summing to 1 in magnitude keep |f| <= 1.
            c1, c0 = rng.uniform(-1, 1, (2, CHEB_NODES))
            dom = [lo[p], hi[p]]
            f1 = np.polynomial.Chebyshev(c1 / np.abs(c1).sum(), domain=dom)
            f0 = np.polynomial.Chebyshev(c0 / np.abs(c0).sum(), domain=dom)
            x = panels.data[0, p]
            rule = panels.w1[p] @ f1(x) + panels.w0[p] @ f0(x)
            exact = _exact_step_integral(f1, f0, lo[p], hi[p], step, levels)
            assert abs(rule - exact) <= 1e-14 * (hi[p] - lo[p])
    assert_allclose(panels.total.sum(axis=1), hi - lo, rtol=1e-14)
    assert_allclose(panels.top, [levels[1], levels[6], levels[38], 0.0])
    assert_allclose(panels.bottom, [levels[16], levels[6], 0.0, 0.0])


def test_step_rule_degree_n_is_not_exact():
    lo, hi = np.array([0.0]), np.array([2.0])
    panels = step_panels(lo, hi, chebyshev_nodes(lo, hi)[None], 1.0,
                         np.ones(3))
    t = panels.data[0, 0] - 1.0
    for d in range(CHEB_NODES):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert abs(panels.total[0] @ t ** d - exact) < 1e-14
    # T_n vanishes at every node but not on average.
    t_n = np.polynomial.Chebyshev.basis(CHEB_NODES)
    assert abs(panels.total[0] @ t_n(t)) < 1e-14
    assert abs(t_n.integ()(1.0) - t_n.integ()(-1.0)) > 1e-3


EPS = np.finfo(float).eps


def _split(step, levels):
    return lambda lo, hi, owner=None: step_panels(
        lo, hi, chebyshev_nodes(lo, hi)[None], step, levels, owner=owner)


def test_integrate_steps_matches_piecewise_integral():
    step = 0.37
    levels = 0.9 ** np.arange(12)
    f1 = lambda x: np.exp(-x)
    f0 = lambda x: 1.0 / (1.0 + x * x)
    edges = np.array([0.0, 0.5, 1.3, 2.0, 4.4, 6.0])
    split = _split(step, levels)
    res = integrate_steps(
        lambda data, owner, weighted: (f1 if weighted else f0)(data[0])[None],
        split(edges[:-1], edges[1:]), split, rel_tol=1e-13, abs_tol=1e-15)[0]
    pts = np.union1d(edges, step * np.arange(1, 17))
    k = np.floor(0.5 * (pts[:-1] + pts[1:]) / step).astype(int)
    v = np.where(k < levels.size, levels[np.minimum(k, levels.size - 1)],
                 0.0)
    exact = np.sum(v * -np.diff(np.exp(-pts))
                   + (1.0 - v) * np.diff(np.arctan(pts)))
    assert abs(res.value - exact) <= max(res.error, 1e-15)
    assert res.error < 1e-12
    assert res.num_evals == CHEB_NODES * res.num_panels


def test_integrate_steps_refines_then_raises_when_budget_spent():
    split = _split(1.0, np.ones(2))
    kink = lambda data, owner, weighted: np.abs(data[0] - 0.3)[None]
    res = integrate_steps(kink, split(np.array([0.0]), np.array([1.0])),
                          split, rel_tol=1e-9, abs_tol=1e-12)[0]
    assert res.rounds > 0 and res.num_panels > 1
    assert abs(res.value - 0.5 * (0.3 ** 2 + 0.7 ** 2)) <= res.error
    with pytest.raises(QuadratureError) as exc:
        integrate_steps(kink, split(np.array([0.0]), np.array([1.0])),
                        split, rel_tol=1e-15, abs_tol=1e-18)
    assert exc.value.diagnostics["num_panels"] > 1


def test_integrate_steps_owners_match_separate_integrals():
    # Two integrals in one call: the smooth one is done at once, only the
    # kinked one is refined, and each gets what it gets alone, up to the
    # rounding of sums whose kernels may depend on the panel count.
    split = _split(1.0, np.ones(2))

    def f(data, owner, weighted):
        x = data[0]
        return np.where(owner[:, None] == 0, np.exp(-x), np.abs(x - 0.3))[None]

    both = integrate_steps(f, split(np.zeros(2), np.ones(2), np.arange(2)),
                           split, rel_tol=1e-9, abs_tol=1e-12)
    assert both.rounds[0] == 0 and both.rounds[1] > 0
    for o in (0, 1):
        alone = integrate_steps(
            lambda data, owner, weighted: f(data, owner + o, weighted),
            split(np.zeros(1), np.ones(1)), split, rel_tol=1e-9,
            abs_tol=1e-12)[0]
        got = both[o]
        assert_allclose(got.values, alone.values, rtol=4 * EPS, atol=0.0)
        # Error estimates of a smooth integrand are rounding noise.
        assert_allclose(got.errors, alone.errors, rtol=1e-6,
                        atol=8 * EPS * abs(alone.values).max())
        assert (got.num_panels, got.num_evals, got.rounds) == (
            alone.num_panels, alone.num_evals, alone.rounds)
