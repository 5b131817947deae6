"""Coverage probability of the downlink as seen by one user.

Base stations form a homogeneous Poisson field; the user attaches to the
nearest one and every other base station interferes.  Conditioned on the
serving distance the interference admits a Laplace transform in closed
integral form, and for integer Nakagami fading orders the conditional
coverage probability is a finite sum over derivatives of that transform.
This module evaluates those integrals numerically with certified
truncation: the line-of-sight field is cut only where its step level
times an exact power-law tail integral certifies the remaining mass
below tolerance, and the non-line-of-sight field beyond a radius solved
from its linearization slack is summed in closed form.  In between, the
line-of-sight level is a step function; a Chebyshev product rule on a
panel grid cached per scenario moves the steps into per-node weights,
so a panel costs two dozen nodes however many steps it spans.
Conditional terms that a closed-form Chernoff bound already certifies
below tolerance are skipped before any of that quadrature runs.

Internally all derivative bookkeeping uses the scaled quantities
``t_j = s^j eta^(j) / j!`` and ``M_k = s^k L^(k) / k!``; every term of the
coverage sum is then non-negative and bounded, so the alternating-sign
derivative recursion cannot lose precision to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .channel import (
    AntennaPattern,
    ChannelParams,
    EnvironmentParams,
    LinkGeometry,
    antenna_gain,
    antenna_gain_curve,
    gain_switch_radii,
    los_breakpoints,
    los_level_curve,
    los_step_levels,
    los_step_width,
    main_lobe_interval,
    path_loss,
    path_loss_curves,
)
from .errors import CapabilityError, DomainError, QuadratureError
from .quadrature import (StepPanels, build_edges, chebyshev_nodes,
                         integrate_family, integrate_steps, step_panels)

__all__ = [
    "MAX_FADING_ORDER",
    "NetworkScenario",
    "QuadratureSpec",
    "CoverageResult",
    "serving_distance_pdf",
    "upsilon",
    "upsilon_derivative",
    "laplace_interference",
    "laplace_derivatives",
    "mean_interference",
    "conditional_coverage",
    "coverage_probability",
    "rayleigh_coverage",
]

# Largest fading order the derivative recursion is evaluated for.  The sum
# has m terms; far beyond this the model is indistinguishable from no fading
# and the factorials stop being representable anyway.
MAX_FADING_ORDER = 32

_MAX_TABLE = 400_000      # hard cap on step-table length
_ETA_FLOOR = -80.0        # transform log below which coverage is treated as 0


@dataclass(frozen=True)
class NetworkScenario:
    """One network/user configuration.

    ``bs_density`` is in base stations per square meter; heights are in
    meters; ``tx_power`` is the common linear transmit power and
    ``sir_threshold`` the linear SIR level that defines coverage.
    """

    bs_density: float
    bs_height: float
    ue_height: float
    tx_power: float
    sir_threshold: float
    channel: ChannelParams
    env: EnvironmentParams
    pattern: AntennaPattern

    def __post_init__(self) -> None:
        if self.bs_density <= 0.0:
            raise DomainError(f"bs_density must be positive, got {self.bs_density}")
        if self.bs_height < 0.0 or self.ue_height < 0.0:
            raise DomainError("heights must be non-negative")
        if self.tx_power <= 0.0:
            raise DomainError(f"tx_power must be positive, got {self.tx_power}")
        if self.sir_threshold <= 0.0:
            raise DomainError(
                f"sir_threshold must be positive, got {self.sir_threshold}")

    def link(self, ground_distance: float) -> LinkGeometry:
        return LinkGeometry(ground_distance, self.bs_height, self.ue_height)


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy and budget knobs for the analytic evaluation.

    ``outer_trunc_prob`` is the serving-distance probability mass allowed
    beyond the outer integration limit.  ``inner_radius_factor`` scales the
    starting guess for the interference truncation radius; the radius then
    grows until the analytic tail bounds fall below ``abs_tol``.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    outer_trunc_prob: float = 1e-8
    inner_radius_factor: float = 10.0
    max_panels: int = 20000
    max_rounds: int = 12

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("tolerances must be positive")
        if not 0.0 < self.outer_trunc_prob < 0.1:
            raise DomainError("outer_trunc_prob must lie in (0, 0.1)")
        if self.inner_radius_factor < 1.0:
            raise DomainError("inner_radius_factor must be at least 1")
        if self.max_panels < 16 or self.max_rounds < 1:
            raise DomainError("quadrature budget too small")


@dataclass
class CoverageResult:
    probability: float
    error_estimate: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def serving_distance_pdf(r0, bs_density: float):
    """Density of the distance to the nearest base station."""
    if bs_density <= 0.0:
        raise DomainError("bs_density must be positive")
    r = np.asarray(r0, dtype=float)
    out = 2.0 * math.pi * bs_density * r * np.exp(-bs_density * math.pi * r * r)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# fading attenuation factor and its derivatives


def _channel_coeff(scn: NetworkScenario, r: float, los: bool) -> float:
    # Mean received power per unit fading from a base station at distance r.
    geom = scn.link(r)
    return scn.tx_power * antenna_gain(geom, scn.pattern) * path_loss(
        geom, scn.channel, los)


def upsilon(scn: NetworkScenario, r: float, s: float, los: bool) -> float:
    """Laplace-domain attenuation factor of one interferer at distance ``r``:
    the fading-averaged value of ``exp(-s * received_power)``."""
    return upsilon_derivative(scn, r, s, los, 0)


def upsilon_derivative(scn: NetworkScenario, r: float, s: float, los: bool,
                       order: int) -> float:
    """Derivative of :func:`upsilon` with respect to ``s``, of given order
    (order 0 is :func:`upsilon` itself)."""
    if s < 0.0:
        raise DomainError("transform argument must be non-negative")
    if order < 0:
        raise DomainError("order must be non-negative")
    m = scn.channel.fading_order(los)
    c = _channel_coeff(scn, r, los)
    x = s * c / m
    mag = math.perm(m + order - 1, order) * math.exp(
        order * math.log(c / m) - (m + order) * math.log1p(x))
    return mag if order % 2 == 0 else -mag


def _scaled_upsilon_rows(x: np.ndarray, m: int, orders: int) -> np.ndarray:
    # Row j (1-based) holds s^j |upsilon^(j)| / j! elementwise, which equals
    # the negative-binomial term C(m+j-1, j) x^j / (1+x)^(m+j) and is <= 1.
    # Each row is the previous one times (m+j-1)/j * x/(1+x), from the
    # j = 0 term (1+x)^-m.
    out = np.empty((orders, x.size))
    ratio = x / (1.0 + x)
    row = np.exp(-m * np.log1p(x))
    for j in range(1, orders + 1):
        row = out[j - 1] = row * ratio * ((m + j - 1) / j)
    return out


@lru_cache(maxsize=256)
def _power_terms(alpha: float, m: int,
                 orders: int) -> tuple[tuple[float, int], ...]:
    # (coefficient, power q) per row j = 0..orders of a link with fading
    # order m: in its mean received power y the row is at most, and far
    # out tends to, perm(m+j-1, j) / (j! m^j) y^q with q = max(j, 1).  The
    # coefficient is divided by alpha q - 2, so that times d^2 it gives
    # the integral of that power law over r dr beyond 3-d distance d.
    return tuple(((1.0 if j == 0 else math.perm(m + j - 1, j)
                   / (math.factorial(j) * float(m) ** j))
                  / (alpha * max(j, 1) - 2.0), max(j, 1))
                 for j in range(orders + 1))


# --------------------------------------------------------------------------
# per-scenario precomputation


class _Field:
    """Cached geometry, step tables, panel grid and tail bounds for one
    scenario."""

    def __init__(self, scn: NetworkScenario, quad: QuadratureSpec) -> None:
        if scn.channel.alpha_nlos <= 2.0:
            raise DomainError(
                "non-line-of-sight path-loss exponent must exceed 2; the "
                "interference field has infinite mean otherwise")
        if scn.channel.alpha_los <= 2.0:
            raise DomainError(
                "line-of-sight path-loss exponent must exceed 2 for the "
                "analytic evaluation; the power-law truncation bounds do "
                "not close otherwise")
        self.scn = scn
        self.quad = quad
        self.step = los_step_width(scn.env)
        self.lobe = main_lobe_interval(scn.bs_height, scn.ue_height,
                                       scn.pattern)
        self.switches = gain_switch_radii(scn.bs_height, scn.ue_height,
                                          scn.pattern)
        self.g_max = max(scn.pattern.gain_main, scn.pattern.gain_side)
        self.g_min = min(scn.pattern.gain_main, scn.pattern.gain_side)
        self.gap2 = (scn.bs_height - scn.ue_height) ** 2
        self.r_outer = math.sqrt(
            math.log(1.0 / quad.outer_trunc_prob)
            / (math.pi * scn.bs_density))
        # First step the cut search tries for a serving distance inside
        # the outer radius.
        self.k_start = int(quad.inner_radius_factor * self.r_outer
                           / self.step) + 1
        self._levels = np.empty(0)
        self._step_gains: dict[int, tuple[float, float, float]] = {}
        # Panel grid of the inner transform, extended on demand; panels
        # below index _n_sight carry line-of-sight weights.
        self._edges = np.zeros(1)
        self._grid: StepPanels | None = None
        self._n_sight = 0
        self._cut_panels: dict[int, tuple] = {}

    # ---------------------------------------------------------- step table

    def levels_upto(self, k_max: int) -> np.ndarray:
        if k_max >= _MAX_TABLE:
            raise QuadratureError(
                "line-of-sight step table too long",
                {"k_max": int(k_max), "cap": _MAX_TABLE})
        if self._levels.size > k_max:
            return self._levels
        scn = self.scn
        self._levels = np.asarray(los_step_levels(
            scn.env, scn.bs_height, scn.ue_height, int(k_max)))
        return self._levels

    def level_at(self, r: float) -> float:
        return float(los_level_curve(r, self.levels_upto(int(r / self.step)),
                                     self.step))

    # ---------------------------------------------------------- tail bounds

    def excess_bound(self, s: float, orders: int, ml: int, mn: int,
                     k: int) -> float:
        """Certified bound on everything lost by zeroing the line-of-sight
        probability beyond step ``k``.

        Step levels never increase with distance, so the level at the cut
        majorizes the probability everywhere beyond it; each scaled
        attenuation row of either link state sits below an explicit power
        of the 3-d distance whose tail integral is exact.
        """
        scn = self.scn
        if k not in self._step_gains:
            r = k * self.step
            zl, zn = path_loss_curves(r, scn.bs_height, scn.ue_height,
                                      scn.channel)
            self._step_gains[k] = (r * r + self.gap2, float(zl), float(zn))
        d2, zl, zn = self._step_gains[k]
        c = s * scn.tx_power * self.g_max
        tot = sum(coef * (c * z) ** q
                  for z, alpha, m in ((zl, scn.channel.alpha_los, ml),
                                      (zn, scn.channel.alpha_nlos, mn))
                  for coef, q in _power_terms(alpha, m, orders))
        return float(self.levels_upto(k)[k]) * 2.0 * math.pi \
            * scn.bs_density * d2 * tot

    def _cut_search(self, k0: int, s: float, orders: int, ml: int, mn: int,
                    tol: float, cap: int) -> int | None:
        # Doubling then bisection for the smallest step whose excess bound
        # fits under tol; None when even the cap fails.
        k = k0
        while self.excess_bound(s, orders, ml, mn, k) > tol:
            k *= 2
            if k > cap:
                return None
        if k == k0:
            return k
        lo, hi = k // 2, k
        while hi - lo > 1 + hi // 16:
            mid = (lo + hi) // 2
            if self.excess_bound(s, orders, ml, mn, mid) > tol:
                lo = mid
            else:
                hi = mid
        return hi

    def choose_cut(self, r0: float, s: float, orders: int, ml: int,
                   mn: int) -> tuple[int | None, float]:
        """Line-of-sight cut step for one transform evaluation plus the
        tolerance the evaluation must meet, or ``(None, eta_lower_bound)``
        when the transform is certified negligible.

        The cut is first sought at the strict absolute tolerance.  When
        slowly decaying step levels push it past a moderate table, the
        tolerance is relaxed to what the final accuracy actually needs: a
        transform-log error is a relative error of the transform, and once
        the transform log is very negative even a large log error leaves
        every output pinned near zero in absolute terms.
        """
        quad = self.quad
        k0 = max(self.k_start, int(r0 / self.step) + 1)
        k = self._cut_search(k0, s, orders, ml, mn, 0.5 * quad.abs_tol,
                             cap=20000)
        if k is not None:
            return k, quad.abs_tol
        eta_lb = self.eta_lower(r0, s)
        if eta_lb <= _ETA_FLOOR:
            return None, eta_lb
        tol = max(quad.abs_tol, quad.rel_tol * abs(eta_lb),
                  quad.abs_tol * math.exp(min(-eta_lb, 60.0)))
        k = self._cut_search(k0, s, orders, ml, mn, 0.5 * tol,
                             cap=_MAX_TABLE - 1)
        if k is None:
            raise QuadratureError(
                "line-of-sight interference mass decays too slowly for the "
                "requested tolerance",
                {"tolerance": tol, "step_cap": _MAX_TABLE - 1,
                 "bound_at_cap": self.excess_bound(s, orders, ml, mn,
                                                   _MAX_TABLE - 1)})
        return k, tol

    # --------------------------------------------------- far-field closed forms

    @cached_property
    def far_gain(self) -> tuple[float, float]:
        # Constant gain seen far out and the radius from which it applies.
        r_gain = max(self.switches, default=0.0)
        return float(self.gain_profile(2.0 * r_gain + 1.0)), r_gain

    def nlos_tail(self, s: float, orders: int, mn: int,
                  r: float) -> tuple[np.ndarray, np.ndarray]:
        """Non-line-of-sight rows beyond ``r`` (past every gain switch) in
        closed form, and the slack of that form per row: each row becomes
        its leading power law ``m x`` or ``C(m+j-1, j) x^j``, whose tail
        integral is exact, off by a factor of at most ``(m + orders) x``
        with ``x`` taken at ``r``, where it is largest."""
        scn = self.scn
        g_far, _ = self.far_gain
        _, zn = path_loss_curves(r, scn.bs_height, scn.ue_height, scn.channel)
        y = s * scn.tx_power * g_far * float(zn)
        terms = _power_terms(scn.channel.alpha_nlos, mn, orders)
        tail = np.array([coef * y ** q for coef, q in terms])
        tail *= 2.0 * math.pi * scn.bs_density * (r * r + self.gap2)
        return tail, (mn + orders) * (y / mn) * tail

    def tail_start(self, s: float, orders: int, mn: int, r0: float,
                   slack: float) -> float:
        """Smallest radius beyond ``r0`` and the last gain switch from
        which every row of :meth:`nlos_tail` has at most ``slack``.  Each
        row's slack is ``B y^(q+1) d^2`` with ``y = a d^-alpha`` at the
        3-d distance ``d``, so it falls with ``d`` and is solved directly."""
        scn = self.scn
        g_far, r_gain = self.far_gain
        alpha = scn.channel.alpha_nlos
        ln_a = math.log(s * scn.tx_power * g_far * scn.channel.intercept_nlos)
        ln_d = max((math.log((mn + orders) / mn * 2.0 * math.pi
                             * scn.bs_density * coef)
                    + (q + 1) * ln_a - math.log(slack))
                   / (alpha * (q + 1) - 2.0)
                   for coef, q in _power_terms(alpha, mn, orders))
        d2 = math.exp(min(2.0 * ln_d, 700.0))
        return max(r0, r_gain, math.sqrt(max(d2 - self.gap2, 0.0)))

    # ------------------------------------------------------------ integrand

    def gain_profile(self, r: np.ndarray) -> np.ndarray:
        return antenna_gain_curve(r, self.lobe, self.scn.pattern)

    def node_data(self, r: np.ndarray) -> np.ndarray:
        """Per-node inputs of the integrand rows at ground distances ``r``:
        the mean received power per unit fading over a line-of-sight and
        over a non-line-of-sight link, and ``2 pi lam r``."""
        scn = self.scn
        zl, zn = path_loss_curves(r, scn.bs_height, scn.ue_height,
                                  scn.channel)
        power = scn.tx_power * self.gain_profile(r)
        return np.array([power * zl, power * zn,
                         (2.0 * math.pi * scn.bs_density) * r])

    @staticmethod
    def link_rows(data: np.ndarray, k: int, s: float, orders: int, ml: int,
                  mn: int) -> tuple[np.ndarray, np.ndarray]:
        """Integrand rows ``j = 0..orders`` of the transform log from
        :meth:`node_data` inputs: over a line-of-sight link on the first
        ``k`` nodes and over a non-line-of-sight link on all of them.  Row
        0 is one minus the attenuation, row ``j`` the scaled attenuation
        derivative ``s^j |upsilon^(j)| / j!``, each times ``2 pi lam r``."""
        cl, cn, area = data

        def rows(c, area, m):
            x = (s / m) * c
            out = np.empty((orders + 1, x.size))
            out[0] = -np.expm1(-m * np.log1p(x))
            if orders:
                out[1:] = _scaled_upsilon_rows(x, m, orders)
            out *= area
            return out

        return rows(cl[:k], area[:k], ml), rows(cn, area, mn)

    def _panels(self, lo: np.ndarray, hi: np.ndarray,
                k_sight: int) -> StepPanels:
        # Chebyshev panels [lo, hi] with the line-of-sight levels of the
        # steps below k_sight.
        return step_panels(lo, hi, self.node_data(chebyshev_nodes(lo, hi)),
                           self.step, self.levels_upto(k_sight)[:k_sight])

    def _grid_to(self, r: float) -> np.ndarray:
        """Edges of the cached panel grid, extended past ``r``.  Panels
        are a quarter of ``hypot(r, gap)`` wide; narrower than a step, they
        end on the next line-of-sight breakpoint when they would come
        within a quarter panel of it, so each carries one level.  Every
        gain switch is an edge."""
        if self._edges[-1] > r:
            return self._edges
        edges = self._edges.tolist()
        start = len(edges) - 1
        x = edges[-1]
        while x <= r:
            d = 0.25 * max(math.hypot(x, math.sqrt(self.gap2)),
                           1e-3 * self.step)
            nxt = x + d
            k = int(x / self.step) + 1     # the next breakpoint
            k += k * self.step <= x
            if d < self.step and nxt > k * self.step - 0.25 * d:
                nxt = k * self.step
            nxt = min([nxt] + [w for w in self.switches if x < w < nxt])
            edges.append(nxt)
            x = nxt
        self._edges = e = np.asarray(edges)
        new = self._panels(e[start:-1], e[start + 1:], 0)
        self._grid = new if start == 0 else StepPanels.concat([self._grid,
                                                               new])
        return e

    def integrate_rows(self, rows, r0: float, k_sight: int, r_end: float,
                       *, rel_tol: float, abs_tol: float,
                       max_rounds: int) -> tuple:
        """Integral over ``[r0, R]`` of ``level * rows_L + (1 - level) *
        rows_N`` (``rows(data, k)`` returns both, as :meth:`link_rows`
        does), the level taken from the steps below ``k_sight`` and 0
        beyond ``r_sight = k_sight * step``; ``R`` is ``r_sight``, or the
        first grid edge past ``r_end`` when that lies beyond.  Returns the
        integral and ``R``.  Only the panel from ``r0`` to the next edge
        is built per call."""
        r_sight = k_sight * self.step
        e = self._grid_to(max(r_sight, r_end))
        i0 = int(np.searchsorted(e, r0, side="right")) - 1
        ic = int(np.searchsorted(e, r_sight, side="right")) - 1
        if ic > self._n_sight:
            g, n = self._grid, self._n_sight
            self._grid = StepPanels.concat([g[:n], self._panels(
                g.lo[n:ic], g.hi[n:ic], k_sight), g[ic:]])
            self._n_sight = ic
        cut = self._cut_panels.get(k_sight)
        if cut is None:
            # The panel holding r_sight, split there.
            cut = self._cut_panels[k_sight] = (
                self._panels(e[ic:ic + 1], np.array([r_sight]), k_sight)
                if e[ic] < r_sight else None,
                self._panels(np.array([r_sight]), e[ic + 1:ic + 2], k_sight))
        parts = [self._grid[i0 + 1:ic], self._panels(
            np.array([r0]), np.array([min(e[i0 + 1], r_sight)]), k_sight)]
        if i0 < ic and cut[0] is not None:
            parts.append(cut[0])
        r_tail = r_sight
        if r_end > r_sight:
            i_end = max(ic + 1, int(np.searchsorted(e, r_end)))
            parts += [cut[1], self._grid[ic + 1:i_end].unweighted()]
            r_tail = float(e[i_end])
        res = integrate_steps(
            rows, StepPanels.concat(parts),
            lambda lo, hi: self._panels(lo, hi, k_sight),
            rel_tol=rel_tol, abs_tol=abs_tol,
            max_panels=self.quad.max_panels, max_rounds=max_rounds)
        return res, r_tail

    def eta_lower(self, r0: float, s: float) -> float:
        """Cheap lower bound on the transform log magnitude: the integrand
        is non-negative, so integrating a prefix of the range at unit
        fading orders under-counts it for any orders.  The prefix integral
        is loose, so its own error estimate is subtracted."""
        r_end = max(self.quad.inner_radius_factor * self.r_outer,
                    1.25 * r0 + 2.0 * self.step)
        res, _ = self.integrate_rows(
            lambda data, k: self.link_rows(data, k, s, 0, 1, 1),
            r0, int(r_end / self.step) + 1, 0.0, rel_tol=1e-3,
            abs_tol=1e-6, max_rounds=4)
        return -max(res.value - res.error, 0.0)

    @cached_property
    def _floor_steps(self) -> tuple[np.ndarray, ...]:
        # Step intervals out to four times the cut search's start: path
        # gains at their right endpoints, step levels, the mass of
        # 2 pi lam r dr on each interval, and suffix sums of that mass
        # times the larger path gain.
        scn = self.scn
        n = min(4 * self.k_start, _MAX_TABLE - 1)
        right = self.step * np.arange(1, n + 1, dtype=float)
        zl, zn = path_loss_curves(right, scn.bs_height, scn.ue_height,
                                  scn.channel)
        levels = self.levels_upto(n)[:n]
        area = math.pi * scn.bs_density * (right ** 2
                                           - (right - self.step) ** 2)
        tail = np.cumsum((area * np.maximum(zl, zn))[::-1])[::-1]
        return zl, zn, levels, area, tail

    def eta_floor(self, r0: float, s: float, need: float = 0.0) -> float:
        """Closed-form lower bound on the transform log magnitude
        ``-ln L(s)`` at serving distance ``r0``, for any fading orders.

        Every interferer term ``1 - (1 + y/m)^-m`` is at least
        ``y / (1 + y)``, which grows with the mean received power ``y``;
        on each step interval the right endpoint and the smaller antenna
        gain minorize ``y`` and the level is constant, so a right-endpoint
        sum over the intervals beyond ``r0`` under-counts the integral.
        When even ``y / (1 + y) <= y`` cannot lift the sum above ``need``
        the trivial bound 0 is returned without array work.
        """
        zl, zn, levels, area, tail = self._floor_steps
        k = int(r0 / self.step)
        if k >= area.size:
            return 0.0
        c = s * self.scn.tx_power * self.g_min
        if c * tail[k] <= need:
            return 0.0
        yl = c * zl[k:]
        yn = c * zn[k:]
        weights = area[k:].copy()
        weights[0] = math.pi * self.scn.bs_density * max(
            ((k + 1) * self.step) ** 2 - r0 * r0, 0.0)
        lev = levels[k:]
        return float(np.dot(weights, lev * (yl / (1.0 + yl))
                            + (1.0 - lev) * (yn / (1.0 + yn))))

    def coverage_negligible(self, r0: float, s: float, m: int,
                            weight: float) -> bool:
        """Whether ``weight`` times the coverage of a serving link with
        fading order ``m`` and transform argument ``s = m T / c0`` is
        certified to be at most half of ``abs_tol``.

        For integer ``m`` that coverage is ``E[Q(m, s I)]``, and the
        Chernoff bound at one half gives ``Q(m, x) <= 2^m exp(-x/2)``,
        so it is at most ``2^m L(s/2)``.
        """
        need = math.log(weight * 2.0 ** m / (0.5 * self.quad.abs_tol))
        return self.eta_floor(r0, 0.5 * s, need) >= need

    def eta_scaled(self, r0: float, s: float, orders: int,
                   ml: int | None = None,
                   mn: int | None = None) -> tuple[np.ndarray, dict]:
        """Scaled transform-log derivatives ``t_j = s^j eta^(j) / j!`` for
        ``j = 0..orders``, with a diagnostics dict.

        Optional fading-order overrides evaluate the field as if both link
        states had those orders; ``ml = mn = 1`` is the single-exponential
        special case.
        """
        quad = self.quad
        scn = self.scn
        if ml is None:
            ml = scn.channel.m_los
        if mn is None:
            mn = scn.channel.m_nlos
        k_cut, aux = self.choose_cut(r0, s, orders, ml, mn)
        if k_cut is None:
            t = np.zeros(orders + 1)
            t[0] = aux
            return t, {"suppressed": True, "eta_lower_bound": aux}
        res, r_end = self.integrate_rows(
            lambda data, k: self.link_rows(data, k, s, orders, ml, mn),
            r0, k_cut, self.tail_start(s, orders, mn, r0, 0.25 * aux),
            rel_tol=quad.rel_tol, abs_tol=quad.abs_tol,
            max_rounds=quad.max_rounds)
        cut_bound = self.excess_bound(s, orders, ml, mn, k_cut)
        tail, slack = self.nlos_tail(s, orders, mn, r_end)
        t = res.values + tail
        t[0] = -t[0]
        t[1::2] = -t[1::2]
        diag = {
            "r_cut": k_cut * self.step,
            "r_linear": r_end,
            "tolerance": aux,
            "cut_bound": cut_bound,
            "linear_slack": float(slack.max()),
            "num_panels": res.num_panels,
            "num_evals": res.num_evals,
            "quad_errors": (res.errors + slack + cut_bound).tolist(),
        }
        return t, diag


@lru_cache(maxsize=32)
def _field_for(scn: NetworkScenario, quad: QuadratureSpec) -> _Field:
    return _Field(scn, quad)


def _require_order(m: int) -> None:
    if m > MAX_FADING_ORDER:
        raise CapabilityError(
            f"fading order {m} exceeds the derivative recursion limit "
            f"({MAX_FADING_ORDER}); use the simulation path for "
            "near-deterministic fading")


def _coverage_terms(t: np.ndarray, m: int) -> np.ndarray:
    # M_k = s^k L^(k) / k! computed by the scaled product recursion.
    msums = np.empty(m)
    msums[0] = math.exp(t[0])
    for j in range(1, m):
        acc = 0.0
        for i in range(j):
            acc += (j - i) / j * t[j - i] * msums[i]
        msums[j] = acc
    return msums


def _coverage_sum(t: np.ndarray, m: int) -> float:
    # sum_k (-1)^k M_k, clipped to a probability.
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    return float(min(max(np.dot(signs, _coverage_terms(t, m)), 0.0), 1.0))


def _serving_coeff(scn: NetworkScenario, r0: float, los: bool) -> float:
    if r0 < 0.0:
        raise DomainError("serving distance must be non-negative")
    return _channel_coeff(scn, r0, los)


def laplace_interference(scn: NetworkScenario, r0: float, s: float,
                         quad: QuadratureSpec | None = None) -> float:
    """Laplace transform of the aggregate interference power, conditioned
    on the serving base station sitting at distance ``r0``."""
    if s < 0.0:
        raise DomainError("transform argument must be non-negative")
    if r0 < 0.0:
        raise DomainError("serving distance must be non-negative")
    if s == 0.0:
        return 1.0
    return float(laplace_derivatives(scn, r0, s, 0, quad)[0])


def laplace_derivatives(scn: NetworkScenario, r0: float, s: float,
                        max_order: int,
                        quad: QuadratureSpec | None = None) -> np.ndarray:
    """Values ``[L(s), L'(s), ..., L^(max_order)(s)]`` of the conditional
    interference Laplace transform."""
    if max_order < 0:
        raise DomainError("max_order must be non-negative")
    if s <= 0.0:
        raise DomainError("derivatives need a positive transform argument")
    _require_order(max_order + 1)
    fld = _field_for(scn, quad or QuadratureSpec())
    t, _ = fld.eta_scaled(r0, s, max_order)
    msums = _coverage_terms(t, max_order + 1)
    orders = np.arange(max_order + 1)
    facts = np.array([math.factorial(int(k)) for k in orders], dtype=float)
    return msums * facts / s ** orders


def mean_interference(scn: NetworkScenario, r0: float,
                      quad: QuadratureSpec | None = None) -> float:
    """Mean aggregate interference power given serving distance ``r0``."""
    if r0 < 0.0:
        raise DomainError("serving distance must be non-negative")
    fld = _field_for(scn, quad or QuadratureSpec())
    qd = fld.quad
    # The first moment is linear in the path gain, so past the last gain
    # switch the non-line-of-sight field has an exact power-law closed
    # form.  The moment majorants coincide with the transform-row
    # majorants at unit argument and unit fading orders, which fixes the
    # line-of-sight cut.
    _, r_gain = fld.far_gain
    k_lin = int(max(r0, r_gain, fld.step) / fld.step) + 1
    r_lin = k_lin * fld.step
    scale = (fld.nlos_tail(1.0, 0, 1, r_lin)[0][0]
             + fld.excess_bound(1.0, 0, 1, 1, k_lin))
    tol = max(qd.abs_tol, qd.rel_tol * scale)
    k0 = max(fld.k_start, k_lin + 1)
    k_cut = fld._cut_search(k0, 1.0, 0, 1, 1, 0.5 * tol, cap=_MAX_TABLE - 1)
    if k_cut is None:
        raise QuadratureError(
            "line-of-sight interference mass decays too slowly for the "
            "requested tolerance",
            {"tolerance": tol, "step_cap": _MAX_TABLE - 1})
    res, r_end = fld.integrate_rows(
        lambda data, k: ((data[0, :k] * data[2, :k])[None],
                         (data[1] * data[2])[None]), r0, k_cut, r_lin,
        rel_tol=qd.rel_tol, abs_tol=qd.abs_tol, max_rounds=qd.max_rounds)
    return res.value + float(fld.nlos_tail(1.0, 0, 1, r_end)[0][0])


def conditional_coverage(scn: NetworkScenario, r0: float, serving_los: bool,
                         quad: QuadratureSpec | None = None) -> float:
    """Coverage probability given the serving distance and the serving
    link's line-of-sight state."""
    quad = quad or QuadratureSpec()
    m = scn.channel.fading_order(serving_los)
    _require_order(m)
    fld = _field_for(scn, quad)
    c0 = _serving_coeff(scn, r0, serving_los)
    s = m * scn.sir_threshold / c0
    t, _ = fld.eta_scaled(r0, s, m - 1)
    return _coverage_sum(t, m)


def _integrate_outer(fld: _Field, ml: int,
                     mn: int) -> tuple[float, float, dict]:
    """Coverage averaged over serving distance and serving-link state,
    with fading order ``ml`` (``mn``) on every line-of-sight
    (non-line-of-sight) link, serving or interfering.

    Terms that :meth:`_Field.coverage_negligible` certifies are skipped;
    each is at most half of ``abs_tol`` times the serving-distance density,
    so both states together lose at most ``abs_tol`` over the integral,
    which is added to the error estimate once.
    """
    quad = fld.quad
    scn = fld.scn
    thr = scn.sir_threshold
    skipped = inner_evals = inner_panels = 0

    def cond_at(r0: float) -> float:
        nonlocal skipped, inner_evals, inner_panels
        p_los = fld.level_at(r0)
        total = 0.0
        for los, m, weight in ((True, ml, p_los), (False, mn, 1.0 - p_los)):
            if weight == 0.0:
                continue
            s = m * thr / _serving_coeff(scn, r0, los)
            if fld.coverage_negligible(r0, s, m, weight):
                skipped += 1
                continue
            t, info = fld.eta_scaled(r0, s, m - 1, ml, mn)
            inner_evals += info.get("num_evals", 0)
            inner_panels += info.get("num_panels", 0)
            total += weight * _coverage_sum(t, m)
        return total

    def integrand(r0s: np.ndarray) -> np.ndarray:
        vals = np.array([cond_at(float(r0)) for r0 in r0s])
        return np.atleast_2d(serving_distance_pdf(r0s, scn.bs_density) * vals)

    edges = build_edges(0.0, fld.r_outer, [
        *los_breakpoints(scn.env, fld.r_outer), *fld.switches])
    res = integrate_family(integrand, edges,
                           rel_tol=quad.rel_tol, abs_tol=quad.abs_tol,
                           max_panels=4096, max_rounds=8)
    prob = float(min(max(res.value, 0.0), 1.0))
    err = res.error + quad.outer_trunc_prob + 8.0 * quad.abs_tol \
        + 4.0 * quad.rel_tol * max(prob, 1e-3)
    if skipped:
        err += quad.abs_tol
    diag = {
        "outer_radius": fld.r_outer,
        "outer_panels": res.num_panels,
        "outer_evals": res.num_evals,
        "outer_quad_error": res.error,
        "inner_evals": inner_evals,
        "inner_panels": inner_panels,
        "truncated_mass": quad.outer_trunc_prob,
        "skipped_terms": skipped,
    }
    return prob, err, diag


def coverage_probability(scn: NetworkScenario,
                         quad: QuadratureSpec | None = None) -> CoverageResult:
    """Coverage probability averaged over serving distance, serving link
    state and fading, with integer Nakagami orders per link state."""
    quad = quad or QuadratureSpec()
    ml, mn = scn.channel.m_los, scn.channel.m_nlos
    _require_order(max(ml, mn))
    prob, err, diag = _integrate_outer(_field_for(scn, quad), ml, mn)
    diag["fading_orders"] = (ml, mn)
    return CoverageResult(prob, err, "analytic", diag)


def rayleigh_coverage(scn: NetworkScenario,
                      quad: QuadratureSpec | None = None) -> CoverageResult:
    """Coverage probability under Rayleigh fading on every link.

    Independent of the fading orders configured in the scenario; this is
    the simplified single-exponential form, useful for cross-checking the
    general recursion at unit fading orders.
    """
    quad = quad or QuadratureSpec()
    prob, err, diag = _integrate_outer(_field_for(scn, quad), 1, 1)
    return CoverageResult(prob, err, "rayleigh", diag)
