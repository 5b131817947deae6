"""Coverage probability of the downlink as seen by one user.

Base stations form a homogeneous Poisson field; the user attaches to the
nearest one and every other base station interferes.  Conditioned on the
serving distance the interference admits a Laplace transform in closed
integral form, and for integer Nakagami fading orders the conditional
coverage probability is a finite sum over derivatives of that transform.
This module evaluates those integrals numerically with certified
truncation: the line-of-sight field is cut only where its step level
times an exact power-law tail integral certifies the remaining mass
below tolerance, and the far field beyond the last breakpoint that
matters is summed in closed form with an accounted linearization slack.
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
from .quadrature import build_edges, integrate_family

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


# --------------------------------------------------------------------------
# per-scenario precomputation


class _Field:
    """Cached geometry, step tables and tail bounds for one scenario."""

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

    def sight_levels(self, r: np.ndarray) -> np.ndarray:
        """Line-of-sight level at the ground distances ``r``."""
        levels = self.levels_upto(int(r.max() / self.step))
        return los_level_curve(r, levels, self.step)

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
        r = k * self.step
        d2 = r * r + self.gap2
        zl, zn = path_loss_curves(r, scn.bs_height, scn.ue_height,
                                  scn.channel)
        c = s * scn.tx_power * self.g_max
        tot = 0.0
        for z, alpha, m in ((zl, scn.channel.alpha_los, ml),
                            (zn, scn.channel.alpha_nlos, mn)):
            y = c * float(z)
            for j in range(orders + 1):
                p = alpha * max(j, 1)
                if p <= 2.0:
                    return math.inf
                k_mj = (1.0 if j == 0 else
                        math.perm(m + j - 1, j)
                        / (math.factorial(j) * float(m) ** j))
                tot += k_mj * y ** max(j, 1) * d2 / (p - 2.0)
        return float(self.levels_upto(k)[k]) * 2.0 * math.pi \
            * scn.bs_density * tot

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

    def linear_start(self, s: float, x_thr: float, r0: float, ml: int,
                     mn: int) -> float:
        """Smallest useful step-aligned radius beyond which both link
        states keep their transform argument below ``x_thr`` and see a
        constant antenna gain, so every attenuation row is a power law up
        to a relative error of order ``x_thr``."""
        scn = self.scn
        _, r_gain = self.far_gain
        r_req = max(r0, r_gain, self.step)
        for los, m in ((True, ml), (False, mn)):
            alpha = scn.channel.alpha(los)
            d_need = (s * scn.tx_power * self.g_max
                      * scn.channel.intercept(los)
                      / (m * x_thr)) ** (1.0 / alpha)
            r_req = max(r_req,
                        math.sqrt(max(d_need * d_need - self.gap2, 0.0)))
        return (int(r_req / self.step) + 1) * self.step

    @staticmethod
    def _q_diff(d2s: np.ndarray, p: float) -> np.ndarray:
        # Per-interval integral of d^-p rho drho over consecutive squared
        # 3-d distances, expressed in units of the reference distance.
        if abs(p - 2.0) < 1e-9:
            anti = 0.5 * np.log(d2s)
        else:
            anti = d2s ** (0.5 * (2.0 - p)) / (2.0 - p)
        return np.diff(anti)

    def linear_terms(self, s: float, orders: int, ml: int, mn: int,
                     r_lin: float, k_cut: int) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form far field beyond ``r_lin``: per row, the signed sum
        of the level-weighted line-of-sight excess out to the cut plus the
        full non-line-of-sight tail, and the absolute mass against which
        the linearization slack scales.

        All powers are taken relative to the 3-d distance at ``r_lin``, so
        the per-row factors are bounded by the transform argument there
        and cannot overflow at high derivative orders.
        """
        scn = self.scn
        g_far, _ = self.far_gain
        two_pi_lam = 2.0 * math.pi * scn.bs_density
        dref2 = r_lin * r_lin + self.gap2
        zl, zn = path_loss_curves(r_lin, scn.bs_height, scn.ue_height,
                                  scn.channel)
        c = s * scn.tx_power * g_far
        signed = np.zeros(orders + 1)
        absmass = np.zeros(orders + 1)
        k_lo = int(round(r_lin / self.step))
        d2s = None
        levels = None
        if k_cut > k_lo:
            bounds = np.arange(k_lo, k_cut + 1, dtype=float) * self.step
            d2s = (bounds * bounds + self.gap2) / dref2
            levels = self.levels_upto(k_cut)[k_lo:k_cut]
        for z, alpha, m, los in ((zl, scn.channel.alpha_los, ml, True),
                                 (zn, scn.channel.alpha_nlos, mn, False)):
            x_ref = c * float(z) / m
            for j in range(orders + 1):
                factor = (m * x_ref if j == 0
                          else math.comb(m + j - 1, j) * x_ref ** j)
                p = alpha * max(j, 1)
                scale = two_pi_lam * factor * dref2
                if levels is not None:
                    seg = scale * float(np.dot(levels, self._q_diff(d2s, p)))
                    signed[j] += seg if los else -seg
                    absmass[j] += seg
                if not los:
                    tail = scale / (p - 2.0)
                    signed[j] += tail
                    absmass[j] += tail
        return signed, absmass

    # ------------------------------------------------------------ integrand

    def gain_profile(self, r: np.ndarray) -> np.ndarray:
        return antenna_gain_curve(r, self.lobe, self.scn.pattern)

    def edges(self, lo: float, hi: float, pts) -> np.ndarray:
        """Panel edges over ``[lo, hi]`` at the points ``pts`` and at every
        antenna gain switch in between."""
        return build_edges(lo, hi, [*pts, *self.switches])

    def step_edges(self, lo: float, hi: float) -> np.ndarray:
        """Panel edges over ``[lo, hi]`` aligned with every line-of-sight
        breakpoint, so no panel straddles a probability jump."""
        return self.edges(lo, hi, los_breakpoints(self.scn.env, hi))

    def _geometric_edges(self, lo: float, hi: float) -> np.ndarray:
        pts = []
        r = max(lo, 1e-3 * self.step)
        while r < hi:
            r *= 1.25
            pts.append(r)
        return self.edges(lo, hi, pts)

    def rows_at(self, r: np.ndarray, s: float, orders: int, ml: int,
                mn: int, sight: bool = True) -> np.ndarray:
        """Integrand rows ``j = 0..orders`` of the transform log at ground
        distances ``r`` with fading orders ``ml``/``mn``: row 0 is the
        mixed one-minus-attenuation, row ``j`` the scaled attenuation
        derivative ``s^j |upsilon^(j)| / j!``, each times ``2 pi lam r``.
        ``sight=False`` leaves out the line-of-sight links, as beyond the
        line-of-sight cut."""
        scn = self.scn
        rows = np.empty((orders + 1, r.size))
        zl, zn = path_loss_curves(r, scn.bs_height, scn.ue_height,
                                  scn.channel)
        g = self.gain_profile(r)
        xn = (s * scn.tx_power / mn) * g * zn
        if sight:
            xl = (s * scn.tx_power / ml) * g * zl
            pl = self.sight_levels(r)
            rows[0] = (pl * (-np.expm1(-ml * np.log1p(xl)))
                       + (1.0 - pl) * (-np.expm1(-mn * np.log1p(xn))))
            if orders:
                rows[1:] = (pl * _scaled_upsilon_rows(xl, ml, orders)
                            + (1.0 - pl)
                            * _scaled_upsilon_rows(xn, mn, orders))
        else:
            rows[0] = -np.expm1(-mn * np.log1p(xn))
            if orders:
                rows[1:] = _scaled_upsilon_rows(xn, mn, orders)
        return rows * (2.0 * math.pi * scn.bs_density * r)

    def eta_lower(self, r0: float, s: float) -> float:
        """Cheap lower bound on the transform log magnitude: the integrand
        is non-negative, so integrating a prefix of the range at unit
        fading orders under-counts it for any orders.  The prefix integral
        is loose, so its own error estimate is subtracted."""
        r_end = max(self.quad.inner_radius_factor * self.r_outer,
                    1.25 * r0 + 2.0 * self.step)
        res = integrate_family(
            lambda r: self.rows_at(r, s, 0, 1, 1),
            self.step_edges(r0, r_end),
            rel_tol=1e-3, abs_tol=1e-6, max_rounds=4,
            max_panels=self.quad.max_panels)
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
        tol_call = aux
        r_cut = k_cut * self.step
        cut_bound = self.excess_bound(s, orders, ml, mn, k_cut)
        # Tighten the far-field linearization until its slack fits the
        # budget.  Each pass multiplies the handover radius by a bounded
        # factor and the mass beyond it shrinks with the radius, so the
        # loop settles quickly; whatever slack remains is reported.
        x_thr = 1e-4
        for _ in range(8):
            r_lin = self.linear_start(s, x_thr, r0, ml, mn)
            lin_vals, lin_abs = self.linear_terms(s, orders, ml, mn,
                                                  r_lin, k_cut)
            slack = (max(ml, mn) + orders) * x_thr * lin_abs
            if float(slack.max()) <= 0.25 * tol_call:
                break
            x_thr *= 1e-2
        r_mixed = min(r_lin, r_cut)
        fam = integrate_family(
            lambda r: self.rows_at(r, s, orders, ml, mn),
            self.step_edges(r0, r_mixed),
            rel_tol=quad.rel_tol, abs_tol=quad.abs_tol,
            max_panels=max(quad.max_panels, 2 * k_cut + 4096),
            max_rounds=quad.max_rounds)
        vals = fam.values + lin_vals
        err_rows = fam.errors + slack
        num_panels = fam.num_panels
        num_evals = fam.num_evals
        if r_lin > r_cut:
            # Between the cut and the linearization radius only the
            # non-line-of-sight rows remain, and they are smooth.
            fam_n = integrate_family(
                lambda r: self.rows_at(r, s, orders, ml, mn, sight=False),
                self._geometric_edges(r_cut, r_lin),
                rel_tol=quad.rel_tol, abs_tol=quad.abs_tol,
                max_panels=quad.max_panels, max_rounds=quad.max_rounds)
            vals = vals + fam_n.values
            err_rows = err_rows + fam_n.errors
            num_panels += fam_n.num_panels
            num_evals += fam_n.num_evals
        t = vals.copy()
        t[0] = -t[0]
        for j in range(1, orders + 1):
            if j % 2 == 1:
                t[j] = -t[j]
        diag = {
            "r_cut": r_cut,
            "r_linear": r_lin,
            "tolerance": tol_call,
            "cut_bound": cut_bound,
            "linear_slack": float(slack.max()),
            "num_panels": num_panels,
            "num_evals": num_evals,
            "quad_errors": (err_rows + cut_bound).tolist(),
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
    # switch the field has exact power-law closed forms.  The moment
    # majorants coincide with the transform-row majorants at unit argument
    # and unit fading orders, which fixes the line-of-sight cut.
    _, r_gain = fld.far_gain
    r_lin = (int(max(r0, r_gain, fld.step) / fld.step) + 1) * fld.step
    k_lin = int(round(r_lin / fld.step))
    scale = (fld.linear_terms(1.0, 0, 1, 1, r_lin, k_lin)[0][0]
             + fld.excess_bound(1.0, 0, 1, 1, k_lin))
    tol = max(qd.abs_tol, qd.rel_tol * scale)
    k0 = max(fld.k_start, k_lin + 1)
    k_cut = fld._cut_search(k0, 1.0, 0, 1, 1, 0.5 * tol, cap=_MAX_TABLE - 1)
    if k_cut is None:
        raise QuadratureError(
            "line-of-sight interference mass decays too slowly for the "
            "requested tolerance",
            {"tolerance": tol, "step_cap": _MAX_TABLE - 1})
    lin_vals, _ = fld.linear_terms(1.0, 0, 1, 1, r_lin, k_cut)
    scn_ch = scn.channel
    two_pi_lam = 2.0 * math.pi * scn.bs_density

    def integrand(r: np.ndarray) -> np.ndarray:
        zl, zn = path_loss_curves(r, scn.bs_height, scn.ue_height, scn_ch)
        g = fld.gain_profile(r)
        pl = fld.sight_levels(r)
        c_mix = scn.tx_power * g * (pl * zl + (1.0 - pl) * zn)
        return np.atleast_2d(two_pi_lam * c_mix * r)

    res = integrate_family(integrand, fld.step_edges(r0, r_lin),
                           rel_tol=qd.rel_tol, abs_tol=qd.abs_tol,
                           max_panels=qd.max_panels,
                           max_rounds=qd.max_rounds)
    return res.value + float(lin_vals[0])


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
    skipped = 0

    def cond_at(r0: float) -> float:
        nonlocal skipped
        p_los = fld.level_at(r0)
        total = 0.0
        for los, m, weight in ((True, ml, p_los), (False, mn, 1.0 - p_los)):
            if weight == 0.0:
                continue
            s = m * thr / _serving_coeff(scn, r0, los)
            if fld.coverage_negligible(r0, s, m, weight):
                skipped += 1
                continue
            t, _ = fld.eta_scaled(r0, s, m - 1, ml, mn)
            total += weight * _coverage_sum(t, m)
        return total

    def integrand(r0s: np.ndarray) -> np.ndarray:
        vals = np.array([cond_at(float(r0)) for r0 in r0s])
        return np.atleast_2d(serving_distance_pdf(r0s, scn.bs_density) * vals)

    res = integrate_family(integrand, fld.step_edges(0.0, fld.r_outer),
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
