"""Adaptive panel Gauss-Kronrod integration.

The integrands in this package are smooth except at a known, finite set of
points (line-of-sight steps, antenna gain switches).  Splitting the range at
those points and applying the nested 7-point Gauss / 15-point Kronrod pair
(G7/K15, the QUADPACK ``qk15`` rule) to each panel gives a cheap embedded
error estimate: the Gauss nodes are a subset of the Kronrod nodes, so one
panel costs 15 integrand evaluations.  A panel's value is its K15 sum and
its error estimate is |K15 - G7|, unscaled, so the reported error is a sum
of conservative panel errors.  Panels whose estimate is too large are
bisected until the requested tolerance is met or the budget runs out.

``integrate_family`` evaluates several integrands that share the same nodes
(one callback returning a 2-D array), refining wherever any member of the
family is inaccurate.  This matters when a function and its derivatives are
integrated together and must stay mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["FamilyIntegral", "build_edges", "integrate_family", "integrate"]

# QUADPACK qk15 (Piessens et al. 1983): Kronrod nodes in [0, 1) in
# decreasing order with their weights; entries 1, 3, 5 and 7 are the
# 7-point Gauss nodes, whose Gauss weights follow.
_XK = np.array([0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144845693013,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245,
                0.0])
_WK = np.array([0.022935322010529224963732008058970,
                0.063092092629978553290700663189204,
                0.104790010322250183839876322541518,
                0.140653259715525918745189590510238,
                0.169004726639267902826583426598550,
                0.190350578064785409913256402421014,
                0.204432940075298892414161999234649,
                0.209482141084727828012999174891714])
_WG = np.zeros(8)
_WG[1::2] = [0.129484966168869693270611432679082,
             0.279705391489276667901467771423780,
             0.381830050505118944950369775488975,
             0.417959183673469387755102040816327]
# The full rule on [-1, 1]: 15 nodes, their K15 weights and their G7
# weights (zero off the Gauss nodes).
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
_GAUSS = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass
class FamilyIntegral:
    """Result of one (possibly refined) family integration."""

    values: np.ndarray
    errors: np.ndarray
    num_panels: int
    num_evals: int
    rounds: int

    @property
    def value(self) -> float:
        return float(self.values[0])

    @property
    def error(self) -> float:
        return float(self.errors[0])


def build_edges(lower: float, upper: float,
                interior: Sequence[float] = ()) -> np.ndarray:
    """Panel edges over ``[lower, upper]`` split at the interior points.

    Interior points outside the open interval are dropped; points closer
    together than a relative 1e-12 of the span are merged.
    """
    if not np.isfinite(lower) or not np.isfinite(upper):
        raise DomainError("integration bounds must be finite")
    if upper <= lower:
        raise DomainError(f"empty integration range [{lower}, {upper}]")
    pts = np.asarray(sorted(p for p in interior if lower < p < upper))
    edges = np.concatenate([[lower], pts, [upper]])
    keep = np.ones(edges.size, dtype=bool)
    keep[1:] = np.diff(edges) > 1e-12 * (upper - lower)
    keep[-1] = True
    edges = edges[keep]
    if edges.size < 2 or edges[-1] <= edges[-2]:
        edges = np.array([lower, upper])
    return edges


def _evaluate(f: Callable[[np.ndarray], np.ndarray],
              lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Returns per-panel K15 integrals and their |K15 - G7| error estimates.
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(nodes.ravel()), dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    y = y.reshape(y.shape[0], lo.size, _NODES.size)
    i_k = (y @ _KRONROD) * half
    i_g = (y @ _GAUSS) * half
    return i_k, np.abs(i_k - i_g)


def integrate_family(f: Callable[[np.ndarray], np.ndarray],
                     edges: np.ndarray, *, rel_tol: float, abs_tol: float,
                     max_panels: int = 4096,
                     max_rounds: int = 12) -> FamilyIntegral:
    """Integrate a family of functions sharing evaluation nodes.

    ``f`` maps a flat array of abscissas to an array of shape
    ``(num_functions, num_points)`` (1-D output is treated as one function).
    Each family member must separately meet
    ``sum of panel errors <= max(abs_tol, rel_tol * |integral|)``.
    """
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    if lo.size == 0:
        raise DomainError("need at least two panel edges")
    vals, errs = _evaluate(f, lo, hi)
    num_evals = lo.size * _NODES.size
    for rounds in range(max_rounds + 1):
        totals = vals.sum(axis=1)
        total_err = errs.sum(axis=1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(totals))
        failing = total_err > tol
        if not failing.any():
            return FamilyIntegral(totals, total_err, lo.size, num_evals, rounds)
        if rounds == max_rounds or 2 * lo.size > max_panels:
            break
        width = hi - lo
        share = tol[:, None] * (width[None, :] / width.sum())
        bad = (errs[failing] > share[failing]).any(axis=0)
        if not bad.any():
            bad[errs[failing].sum(axis=0).argmax()] = True
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        new_vals, new_errs = _evaluate(f, new_lo, new_hi)
        num_evals += new_lo.size * _NODES.size
        lo = np.concatenate([lo[~bad], new_lo])
        hi = np.concatenate([hi[~bad], new_hi])
        vals = np.concatenate([vals[:, ~bad], new_vals], axis=1)
        errs = np.concatenate([errs[:, ~bad], new_errs], axis=1)
    raise QuadratureError(
        "panel refinement did not reach the requested tolerance",
        diagnostics={
            "total_error": total_err.tolist(),
            "tolerance": tol.tolist(),
            "num_panels": int(lo.size),
            "num_evals": int(num_evals),
            "worst_panel": (float(lo[errs.sum(axis=0).argmax()]),
                            float(hi[errs.sum(axis=0).argmax()])),
        })


def integrate(f: Callable[[np.ndarray], np.ndarray], lower: float,
              upper: float, interior: Sequence[float] = (), *,
              rel_tol: float = 1e-10, abs_tol: float = 1e-12,
              max_panels: int = 4096,
              max_rounds: int = 12) -> tuple[float, float]:
    """Integrate a single vectorized function; returns (value, error)."""
    res = integrate_family(lambda x: np.atleast_2d(np.asarray(f(x))),
                           build_edges(lower, upper, interior),
                           rel_tol=rel_tol, abs_tol=abs_tol,
                           max_panels=max_panels, max_rounds=max_rounds)
    return res.value, res.error
