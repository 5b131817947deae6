"""Adaptive panel integration: one refinement driver, two panel rules.

The integrands in this package are smooth except at a known, finite set of
points (line-of-sight steps, antenna gain switches).  :func:`integrate_steps`
integrates ``v f1 + (1 - v) f0``, with smooth ``f1``, ``f0`` and a
piecewise-constant weight ``v``, over panels split at those points, and
bisects panels whose error estimate is too large until the tolerance is
met or the budget runs out.  The panels (:class:`StepPanels`) carry their
nodes, weights and error rule, so the driver never asks which rule it runs:

* :func:`kronrod_panels`: the nested 7-point Gauss / 15-point Kronrod pair
  (G7/K15, QUADPACK's ``qk15``) for a plain integrand (``v = 0``); a panel
  costs 15 evaluations, its value is the K15 sum and its error estimate
  |K15 - G7|, unscaled.
* :func:`step_panels`: ``CHEB_NODES`` first-kind Chebyshev nodes for a ``v``
  that may jump many times inside a panel.  ``v`` moves into per-node
  product weights ``int v l_i`` (``l_i`` the node's Lagrange polynomial),
  computed once from the antiderivatives of the Chebyshev polynomials at
  the jumps (Clenshaw and Curtis, Numer. Math. 2, 1960; Trefethen,
  Approximation Theory and Approximation Practice, 2013); the rule is exact
  for polynomial ``f1``, ``f0`` of degree below ``CHEB_NODES`` whatever the
  jumps.  A panel's error estimate is its width times the last two
  Chebyshev coefficients of each member, weighted by the largest ``v`` and
  ``1 - v`` on the panel.

The integrand is a family of functions sharing the nodes (a function and
its derivatives stay consistent), refined wherever any member is
inaccurate.  Each panel carries the index of the integral it belongs to,
its owner, so one call integrates many integrals: the integrand is
evaluated once over all their panels, totals and errors are sums per
owner, and refinement bisects only the panels of failing owners.  The
reported errors add a bound on the rounding of those sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["CHEB_NODES", "FamilyIntegral", "StepIntegrals", "StepPanels",
           "build_edges", "chebyshev_nodes", "integrate_steps",
           "kronrod_panels", "step_panels"]

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
# Error functional of a panel per unit width: (K15 - G7) / 2 on [-1, 1].
_K15_G7 = (0.5 * (_KRONROD - _GAUSS))[:, None]


@dataclass
class FamilyIntegral:
    """One owner's result of :func:`integrate_steps`."""

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


# --------------------------------------------- Chebyshev product rule

CHEB_NODES = 24
# First-kind nodes cos(theta) on [-1, 1] in increasing order, and the
# matrix taking values at them to Chebyshev coefficients.
_THETA = [(CHEB_NODES - k - 0.5) * math.pi / CHEB_NODES
          for k in range(CHEB_NODES)]
_CHEB = np.array([math.cos(th) for th in _THETA])
_DCT = np.array([[(1.0 if j else 0.5) * 2.0 / CHEB_NODES * math.cos(j * th)
                  for th in _THETA] for j in range(CHEB_NODES)])
_TAIL = _DCT[-2:].T      # the last two coefficients
_CHUNK = 1024            # jumps per block of antiderivative evaluations
_UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps


def _antiderivatives(t: np.ndarray) -> np.ndarray:
    # Antiderivatives of T_0 .. T_{n-1} at t in [-1, 1], on a new last
    # axis, up to constants; every use below takes differences whose
    # constants cancel.  T_k comes from T_{k+1} = 2 t T_k - T_{k-1}.
    n = CHEB_NODES
    t = np.asarray(t, dtype=float)
    tk = np.empty(t.shape + (n + 1,))
    tk[..., 0] = 1.0
    tk[..., 1] = t
    for k in range(1, n):
        tk[..., k + 1] = 2.0 * t * tk[..., k] - tk[..., k - 1]
    out = np.empty(t.shape + (n,))
    out[..., 0] = tk[..., 1]
    out[..., 1] = 0.25 * tk[..., 2]
    j = np.arange(2, n)
    out[..., 2:] = (tk[..., 3:] / (2.0 * (j + 1))
                    - tk[..., 1:n - 1] / (2.0 * (j - 1)))
    return out


_U_HI = _antiderivatives(np.array(1.0))
_U_LO = _antiderivatives(np.array(-1.0))
# Weights of the plain rule on [-1, 1] (Fejer's first rule).
_FEJER = ((_U_HI - _U_LO)[:, None] * _DCT).sum(axis=0)


@dataclass
class StepPanels:
    """Panels with per-node inputs, weights and their error rule.

    ``data`` (shape ``(k, panels, nodes)``) holds whatever the integrand
    callback reads per node, node positions included.  The integral of
    ``v f1 + (1 - v) f0`` over the panels is ``sum(w1 * f1 + w0 * f0)``;
    ``top`` and ``bottom`` are the largest and smallest ``v`` per panel,
    and ``owner`` is the index of the integral each panel belongs to.  A
    panel's error estimate is its width times ``sum |f @ error_rule|``
    over the columns of ``error_rule`` (shape ``(nodes, columns)``),
    weighted by ``top`` for ``f1`` and by ``1 - bottom`` for ``f0``.
    """

    lo: np.ndarray
    hi: np.ndarray
    data: np.ndarray
    w1: np.ndarray
    w0: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    owner: np.ndarray
    error_rule: np.ndarray

    def __getitem__(self, idx) -> "StepPanels":
        return StepPanels(self.lo[idx], self.hi[idx], self.data[:, idx],
                          self.w1[idx], self.w0[idx], self.top[idx],
                          self.bottom[idx], self.owner[idx],
                          self.error_rule)

    def __setitem__(self, idx, panels: "StepPanels") -> None:
        """Write ``panels`` over the panels at ``idx``, field by field."""
        self.lo[idx], self.hi[idx] = panels.lo, panels.hi
        self.data[:, idx] = panels.data
        self.w1[idx], self.w0[idx] = panels.w1, panels.w0
        self.top[idx], self.bottom[idx] = panels.top, panels.bottom
        self.owner[idx] = panels.owner

    @staticmethod
    def concat(parts: Sequence["StepPanels"]) -> "StepPanels":
        return StepPanels(np.concatenate([p.lo for p in parts]),
                          np.concatenate([p.hi for p in parts]),
                          np.concatenate([p.data for p in parts], axis=1),
                          np.concatenate([p.w1 for p in parts]),
                          np.concatenate([p.w0 for p in parts]),
                          np.concatenate([p.top for p in parts]),
                          np.concatenate([p.bottom for p in parts]),
                          np.concatenate([p.owner for p in parts]),
                          parts[0].error_rule)


def chebyshev_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Nodes of panels ``[lo, hi]``, shape ``(panels, CHEB_NODES)``."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _CHEB[None, :]


def kronrod_panels(lo: np.ndarray, hi: np.ndarray,
                   owner: np.ndarray | None = None) -> StepPanels:
    """G7/K15 panels ``[lo, hi]`` of a plain integrand (``v = 0``, so
    ``f1`` is never asked for): ``data`` holds the 15 node positions, and
    ``owner`` (default 0) is stored with the panels."""
    if owner is None:
        owner = np.zeros(lo.size, dtype=np.intp)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    zero = np.zeros(lo.size)
    return StepPanels(lo, hi, nodes[None], np.zeros(nodes.shape),
                      half[:, None] * _KRONROD, zero, zero, owner, _K15_G7)


def step_panels(lo: np.ndarray, hi: np.ndarray, data: np.ndarray,
                step: float, levels: np.ndarray, ends=None,
                owner: np.ndarray | None = None) -> StepPanels:
    """Panels ``[lo, hi]`` of non-negative ``r`` for the step weight
    ``v(r) = levels[floor(r / step)]``, which must not increase with
    ``r``, and ``v = 0`` from step ``ends`` on: one value or one per
    panel, at most ``levels.size``, which is the default.  ``owner``
    (default 0) is stored with the panels.

    Each panel's weights follow from the jumps of ``v`` inside it:
    ``int v T_j = v_last U_j(1) - v_first U_j(-1) + sum(drop * U_j(t))``
    over the jumps at ``t``, ``U_j`` being the antiderivative of ``T_j``.
    A jump that falls on a panel edge enters with the level on its far
    side, which gives the same weights, so edges that are multiples of
    ``step`` need no exact division.
    """
    if owner is None:
        owner = np.zeros(lo.size, dtype=np.intp)
    half = 0.5 * (hi - lo)
    total = half[:, None] * _FEJER
    size = np.broadcast_to(levels.size if ends is None else ends, lo.shape)
    k_first = np.minimum(np.floor(lo / step), size).astype(np.int64)
    k_last = np.minimum(np.ceil(hi / step) - 1, size).astype(np.int64)

    def level(k, end):
        return np.where(k < end, levels[np.minimum(k, levels.size - 1)], 0.0)

    first = level(k_first, size) if levels.size else np.zeros(lo.size)
    counts = k_last - k_first
    if not counts.any():
        w1 = first[:, None] * total
        return StepPanels(lo, hi, data, w1, total - w1, first, first, owner,
                          _TAIL)
    last = level(k_last, size)
    moments = np.multiply.outer(last, _U_HI) - np.multiply.outer(first, _U_LO)
    panel = np.repeat(np.arange(lo.size), counts)
    ks = (np.arange(panel.size) - np.repeat(np.cumsum(counts) - counts, counts)
          + np.repeat(k_first + 1, counts))
    mid = lo + half
    for a in range(0, panel.size, _CHUNK):
        p = panel[a:a + _CHUNK]
        k = ks[a:a + _CHUNK]
        end = size[p]
        jumps = ((level(k - 1, end) - level(k, end))[:, None]
                 * _antiderivatives((k * step - mid[p]) / half[p]))
        heads = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        moments[p[heads]] += np.add.reduceat(jumps, heads, axis=0)
    w1 = half[:, None] * (moments @ _DCT)
    return StepPanels(lo, hi, data, w1, total - w1, first, last, owner,
                      _TAIL)


def _family_sums(g: np.ndarray, w: np.ndarray, e: np.ndarray,
                 share: np.ndarray) -> tuple:
    # Per member and panel of the family g (members, panels, nodes) with
    # weights w and error rule e: the integral, the error estimate per
    # unit width (e times the panel's largest weight share) and a bound on
    # sum |w g| (Cauchy-Schwarz: the product of the 2-norms).
    vals = np.empty(g.shape[:2])
    mags = np.empty(g.shape[:2])
    for j, row in enumerate(g):
        vals[j] = (row * w).sum(axis=1)
        mags[j] = np.sqrt((row * row).sum(axis=1))
    mags *= np.sqrt((w * w).sum(axis=1))
    return vals, np.abs(g @ e).sum(axis=2) * share, mags


def _evaluate_steps(f, panels: StepPanels) -> tuple:
    # The panels, those with v > 0 first so that f1 is evaluated on a
    # prefix of them only, with their integrals, error estimates and
    # bounds on sum |w f|; one family is evaluated at a time.
    live = panels.top > 0.0
    n = int(live.sum())
    if not live[:n].all():
        panels = panels[np.concatenate([np.flatnonzero(live),
                                        np.flatnonzero(~live)])]
    vals, errs, mags = _family_sums(f(panels.data, panels.owner, False),
                                    panels.w0, panels.error_rule,
                                    1.0 - panels.bottom)
    if n:
        for total, part in zip((vals, errs, mags), _family_sums(
                f(panels.data[:, :n], panels.owner[:n], True),
                panels.w1[:n], panels.error_rule, panels.top[:n])):
            total[:, :n] += part
    errs *= panels.hi - panels.lo
    return panels, vals, errs, mags


@dataclass
class StepIntegrals:
    """Per-owner results of one :func:`integrate_steps` call: arrays with
    one row (``values``, ``errors``) or entry per owner.  Indexing by
    owner gives that owner's :class:`FamilyIntegral`."""

    values: np.ndarray
    errors: np.ndarray
    num_panels: np.ndarray
    num_evals: np.ndarray
    rounds: np.ndarray

    def __getitem__(self, i: int) -> FamilyIntegral:
        return FamilyIntegral(self.values[i], self.errors[i],
                              int(self.num_panels[i]),
                              int(self.num_evals[i]), int(self.rounds[i]))


def _owner_sums(x: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    # Sums of each row of x over each owner's panels, shape (rows, n): one
    # bincount with a bin per row and owner, each summed in panel order.
    rows = x.shape[0]
    bins = owner + n * np.arange(rows)[:, None]
    return np.bincount(bins.ravel(), x.ravel(), n * rows).reshape(rows, n)


# Refinement budget of every integral, per owner.  The integrals of this
# package converge within about 140 panels and 5 rounds, so the budget
# only decides when an integral that fails its tolerance is given up.
_MAX_PANELS = 20_000
_MAX_ROUNDS = 12


def integrate_steps(f, panels: StepPanels, split, *, rel_tol: float,
                    abs_tol: float) -> StepIntegrals:
    """Integrate the family ``v f1 + (1 - v) f0`` of every owner over its
    panels, built by :func:`kronrod_panels` or :func:`step_panels`.

    ``f(data, owner, weighted)`` maps per-node inputs (shape
    ``(k_inputs, panels, nodes)``) and the owner of each panel to ``f1``
    when ``weighted`` is true and to ``f0`` otherwise, each of shape
    ``(members, panels, nodes)``; ``f1`` is asked for only on panels where
    ``v`` is not identically 0.  ``split(lo, hi, owner)`` builds the
    :class:`StepPanels` of new panels when a panel is bisected.  Owners
    are numbered from 0 and each has a panel; one integral is the case of
    one owner.  Each member of each owner must meet ``sum of its panel
    errors <= max(abs_tol, rel_tol * |integral|)``; while one fails, every
    panel of that owner whose error exceeds its share of that tolerance,
    in proportion to its width, is bisected, for at most ``_MAX_ROUNDS``
    rounds and while no failing owner would pass ``_MAX_PANELS`` panels;
    past either budget a :class:`QuadratureError` names the first failing
    owner.

    The reported errors add ``gamma_n sum |w f|`` over the owner's nodes
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, §4.2),
    with ``n`` bounding the roundings a term passes through: its product,
    the sum over its panel's nodes, the two families and the sum over the
    owner's panels.  ``sum |w f|`` is bounded per panel by the 2-norms of
    ``w`` and ``f``.  The tolerance test leaves this term out, since
    refinement cannot lower it.
    """
    n_own = int(panels.owner.max()) + 1
    nodes = panels.data.shape[-1]
    panels, vals, errs, mags = _evaluate_steps(f, panels)
    lo, hi, owner = panels.lo, panels.hi, panels.owner
    out = StepIntegrals(np.empty((n_own, vals.shape[0])),
                        np.empty((n_own, vals.shape[0])),
                        np.zeros(n_own, dtype=np.int64),
                        nodes * np.bincount(owner, minlength=n_own),
                        np.zeros(n_own, dtype=np.int64))
    for rounds in range(_MAX_ROUNDS + 1):
        count = np.bincount(owner, minlength=n_own)
        totals = _owner_sums(vals, owner, n_own)
        total_err = _owner_sums(errs, owner, n_own)
        tol = np.maximum(abs_tol, rel_tol * np.abs(totals))
        failing = total_err > tol
        fails = failing.any(axis=0)
        done = (count > 0) & ~fails
        if done.any():
            roundings = (count + nodes + 1) * _UNIT_ROUNDOFF
            gamma = roundings / (1.0 - roundings)
            out.values[done] = totals.T[done]
            out.errors[done] = (total_err + gamma * _owner_sums(
                mags, owner, n_own)).T[done]
            out.num_panels[done] = count[done]
            out.rounds[done] = rounds
        if not fails.any():
            return out
        if rounds == _MAX_ROUNDS or (2 * count[fails] > _MAX_PANELS).any():
            break
        keep = fails[owner]
        lo, hi, owner = lo[keep], hi[keep], owner[keep]
        vals, errs, mags = vals[:, keep], errs[:, keep], mags[:, keep]
        width = hi - lo
        bad = (errs > np.where(failing, tol, np.inf)[:, owner] * (
            width / np.bincount(owner, width, n_own)[owner])).any(axis=0)
        for o in np.flatnonzero(fails & (np.bincount(owner, bad, n_own) == 0)):
            mine = np.flatnonzero(owner == o)
            bad[mine[errs[failing[:, o]][:, mine].sum(axis=0).argmax()]] = True
        mid = 0.5 * (lo[bad] + hi[bad])
        new, new_vals, new_errs, new_mags = _evaluate_steps(f, split(
            np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]]),
            np.tile(owner[bad], 2)))
        out.num_evals += nodes * np.bincount(new.owner, minlength=n_own)
        lo = np.concatenate([lo[~bad], new.lo])
        hi = np.concatenate([hi[~bad], new.hi])
        owner = np.concatenate([owner[~bad], new.owner])
        vals = np.concatenate([vals[:, ~bad], new_vals], axis=1)
        errs = np.concatenate([errs[:, ~bad], new_errs], axis=1)
        mags = np.concatenate([mags[:, ~bad], new_mags], axis=1)
    o = int(np.flatnonzero(fails)[0])
    mine = np.flatnonzero(owner == o)
    worst = mine[errs[:, mine].sum(axis=0).argmax()]
    raise QuadratureError(
        "panel refinement did not reach the requested tolerance",
        diagnostics={
            "total_error": total_err[:, o].tolist(),
            "tolerance": tol[:, o].tolist(),
            "num_panels": int(count[o]),
            "num_evals": int(out.num_evals[o]),
            "worst_panel": (float(lo[worst]), float(hi[worst])),
        })
