"""Tests for the panel integration engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dronecov.errors import DomainError, QuadratureError
from dronecov.quadrature import (_GAUSS, _KRONROD, _NODES, build_edges,
                                 integrate, integrate_family)


def test_polynomial_exact():
    val, err = integrate(lambda x: 3.0 * x * x, 0.0, 2.0)
    assert_allclose(val, 8.0, rtol=1e-14)
    assert err < 1e-12


def test_exponential():
    val, err = integrate(np.exp, 0.0, 1.0)
    assert_allclose(val, math.e - 1.0, rtol=1e-13)
    assert err < 1e-10


def test_split_at_kink():
    f = lambda x: np.abs(x - 0.3)
    exact = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    val, _ = integrate(f, 0.0, 1.0, interior=[0.3])
    assert_allclose(val, exact, rtol=1e-14)
    # Without the split the refinement loop has to work for it.
    val2, err2 = integrate(f, 0.0, 1.0, rel_tol=1e-9, abs_tol=1e-12)
    assert_allclose(val2, exact, rtol=1e-8)
    assert err2 < 1e-8


def test_step_function_with_matching_edge():
    f = lambda x: np.where(x < 0.25, 2.0, 5.0)
    val, err = integrate(f, 0.0, 1.0, interior=[0.25])
    assert_allclose(val, 0.25 * 2.0 + 0.75 * 5.0, rtol=1e-14)
    assert err < 1e-13


def test_family_shares_refinement():
    def fam(x):
        return np.vstack([np.exp(-x), np.abs(x - 0.6) ** 1.5])
    edges = build_edges(0.0, 1.0)
    res = integrate_family(fam, edges, rel_tol=1e-10, abs_tol=1e-13)
    assert_allclose(res.values[0], 1.0 - math.exp(-1.0), rtol=1e-10)
    exact = (0.6 ** 2.5 + 0.4 ** 2.5) / 2.5
    assert_allclose(res.values[1], exact, rtol=1e-9)
    assert res.num_panels >= 1
    assert res.rounds >= 1  # the kinked member forces subdivision


def test_budget_exhaustion_raises():
    f = lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300))
    with pytest.raises(QuadratureError) as exc:
        integrate(f, 0.0, 1.0, rel_tol=1e-12, abs_tol=1e-14, max_rounds=3)
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
    val, err = integrate(lambda x: x * np.exp(-0.01 * x), 0.5, 600.0,
                         interior=pts)
    exact = ((0.5 / 0.01 + 1.0 / 0.01 ** 2) * math.exp(-0.01 * 0.5)
             - (600.0 / 0.01 + 1.0 / 0.01 ** 2) * math.exp(-0.01 * 600.0))
    assert_allclose(val, exact, rtol=1e-12)
    assert err < 1e-6 * abs(exact)


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
    res = integrate_family(poly, np.array([-0.5, 1.0]), rel_tol=1e-12,
                           abs_tol=1e-14)
    exact = poly.integ()(1.0) - poly.integ()(-0.5)
    assert_allclose(res.value, exact, rtol=1e-14)
    assert res.error < 1e-14
    assert res.num_panels == 1 and res.rounds == 0
    assert res.num_evals == 15
