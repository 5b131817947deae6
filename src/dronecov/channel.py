"""Link-level building blocks: path loss, line-of-sight statistics, antenna
gain and the fading order of each link state.

All distances and heights are in meters, powers and gains are linear scale.
A link is described by the horizontal (ground) distance between the base
station and the user plus the two antenna heights; whether the link is
line-of-sight is a Bernoulli variable whose probability depends on the
built-up environment.

Each model is one vectorized kernel over ground distances ``r`` that
takes the link heights and the model's parameters, ``(r, ..., bs_height,
ue_height, params)``, and returns its values rather than writing into
an argument: :func:`path_gain_curve` for path gain at each link's own state,
:func:`los_level_curve` for the line-of-sight level and
:func:`los_tail_sums` for each state's share of power-law tails, and
:func:`antenna_gain_curve` for antenna gain.  The line-of-sight level is
a step function of ground distance; :func:`los_step_index` is the one
rule for which step holds a distance, and :func:`los_step_levels` the
table of levels per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError, require_positive
from .quadrature import integrate_steps, kronrod_panels

__all__ = [
    "EnvironmentParams",
    "ChannelParams",
    "AntennaPattern",
    "path_gain_curve",
    "los_breakpoints",
    "los_step_width",
    "los_step_index",
    "los_step_levels",
    "los_level_curve",
    "los_tail_sums",
    "los_exact_steps",
    "power_law_integral",
    "antenna_gain_curve",
    "main_lobe_interval",
    "gain_switch_radii",
]


@dataclass(frozen=True)
class EnvironmentParams:
    """Statistical description of the built-up environment.

    The three values follow the common urban-propagation convention:
    ``built_fraction`` is the ratio of land covered by buildings,
    ``buildings_per_km2`` the building density, and ``height_scale`` the
    Rayleigh scale parameter of the building-height distribution.
    """

    built_fraction: float
    buildings_per_km2: float
    height_scale: float

    def __post_init__(self) -> None:
        if not 0.0 < self.built_fraction <= 1.0:
            raise DomainError(
                f"built_fraction must lie in (0, 1], got {self.built_fraction}")
        require_positive(self, "buildings_per_km2", "height_scale")


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and fading parameters, split by link state.

    ``intercept_los``/``intercept_nlos`` are the linear path gains at a
    reference distance of 1 m, ``alpha_*`` the path-loss exponents and
    ``m_*`` the (integer) Nakagami fading orders.  ``m = 1`` is Rayleigh
    fading; large ``m`` approaches a non-fading channel.
    """

    alpha_los: float
    alpha_nlos: float
    intercept_los: float
    intercept_nlos: float
    m_los: int
    m_nlos: int

    def __post_init__(self) -> None:
        require_positive(self, "alpha_los", "alpha_nlos", "intercept_los",
                         "intercept_nlos")
        for name in ("m_los", "m_nlos"):
            m = getattr(self, name)
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise DomainError(f"{name} must be a positive integer, got {m!r}")

    def fading_order(self, los: bool) -> int:
        return self.m_los if los else self.m_nlos


@dataclass(frozen=True)
class AntennaPattern:
    """Two-level base-station antenna: a main lobe of ``beamwidth_deg``
    degrees centered ``downtilt_deg`` below the horizon, and a constant
    side-lobe floor everywhere else."""

    beamwidth_deg: float
    downtilt_deg: float
    gain_main: float
    gain_side: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beamwidth_deg <= 360.0:
            raise DomainError(
                f"beamwidth_deg must lie in (0, 360], got {self.beamwidth_deg}")
        if not -90.0 <= self.downtilt_deg <= 90.0:
            raise DomainError(
                f"downtilt_deg must lie in [-90, 90], got {self.downtilt_deg}")
        require_positive(self, "gain_main", "gain_side")


def path_gain_curve(r, los, bs_height: float, ue_height: float,
                    channel: ChannelParams):
    """Vectorized path gain ``A * d**-alpha`` over ground distances ``r``,
    ``d`` being the 3-D link distance, each link at its own propagation
    state ``los`` (a bool or a bool array shaped like ``r``)."""
    # np.take indexes (blocked, sight) by state without branching, which
    # np.where does per element and mispredicts on mixed states.
    r = np.asarray(r, dtype=float)
    gain = np.power(r * r + (bs_height - ue_height) ** 2, np.take(
        (-0.5 * channel.alpha_nlos, -0.5 * channel.alpha_los), los))
    return gain * np.take((channel.intercept_nlos, channel.intercept_los), los)


def _clearance(h, env: EnvironmentParams):
    # Probability 1 - exp(-h^2 / (2 c^2)) that a building is below h.
    return -np.expm1(-h * h / (2.0 * env.height_scale ** 2))


def _log_clearance(h, env: EnvironmentParams):
    # ln of _clearance, without cancellation at either end of h.
    x = h * h / (2.0 * env.height_scale ** 2)
    return np.where(x > math.log(2.0), np.log1p(-np.exp(-x)),
                    np.log(-np.expm1(-x)))


def los_step_width(env: EnvironmentParams) -> float:
    """Ground-distance width of one step of the line-of-sight probability."""
    return 1000.0 / math.sqrt(env.built_fraction * env.buildings_per_km2)


def los_breakpoints(env: EnvironmentParams, r_max: float):
    """Sorted ground distances in ``(0, r_max]`` where the line-of-sight
    probability steps down (integer multiples of the step width)."""
    if r_max <= 0.0:
        return np.empty(0)
    if not r_max < math.inf:
        raise DomainError(f"r_max must be finite, got {r_max}")
    return los_step_width(env) * np.arange(1, los_step_index(r_max, env) + 1)


# Tables keep exact blocker products up to the first of these steps where
# the level law validates, or up to the last (_K_EXACT) if none does.
_K_SWITCHES = (512, 1024, 2048, 4000)
_K_EXACT = _K_SWITCHES[-1]


def _log_clearance_derivatives(h: float, c2: float) -> tuple[float, ...]:
    # g', g''' and g^(5) of g = ln(1 - exp(-h^2 / c2)), from the Taylor
    # jets of e = exp(-(h + t)^2 / c2) and of ln(1 - e) in t.
    e, f, g = [0.0, math.exp(-h * h / c2)], [-math.expm1(-h * h / c2)], [0.0]
    for n in range(1, 6):
        e.append(-2.0 * (h * e[-1] + e[-2]) / (n * c2))
        f.append(-e[-1])
        g.append((f[n] - sum(j * g[j] * f[n - j] for j in range(1, n)) / n)
                 / f[0])
    return g[1], 6.0 * g[3], 120.0 * g[5]


@dataclass(frozen=True)
class _LevelLaw:
    """``ln level_k = a k + b/k + c/k^3 + d/k^5``, for real ``k``."""

    a: float
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __call__(self, k):
        return self.a * k + self.b / k + self.c / k ** 3 + self.d / k ** 5

    def jets(self, x, order: int) -> list:
        # Taylor coefficients 0..order at x; k^-n adds C(-n, m) x^(-n-m).
        return [self(x)] + [(self.a if m == 1 else 0.0) + sum(
            c * (-1) ** m * math.comb(n + m - 1, m) / x ** (n + m)
            for c, n in ((self.b, 1), (self.c, 3), (self.d, 5)))
            for m in range(1, order + 1)]


def _level_law(env: EnvironmentParams, h_lo: float,
               h_hi: float) -> _LevelLaw:
    # Midpoint Euler-Maclaurin form (DLMF 2.10) of ln level_k, the sum of
    # g = ln(clearance) at k heights dh/k apart across [h_lo, h_hi]:
    #   (k/dh) int g - (dh/24k) dg' + (7 dh^3/5760k^3) dg'''
    #   - (31 dh^5/967680k^5) dg^(5),   dg^(j) = g^(j)(h_hi) - g^(j)(h_lo).
    c2, dh = 2.0 * env.height_scale ** 2, h_hi - h_lo
    total = integrate_steps(
        lambda data, owner, weighted: _log_clearance(data, env),
        kronrod_panels(np.array([h_lo]), np.array([h_hi])), kronrod_panels,
        rel_tol=1e-12, abs_tol=0.0)[0].value
    d1, d3, d5 = (hi - lo for hi, lo in zip(
        _log_clearance_derivatives(h_hi, c2),
        _log_clearance_derivatives(h_lo, c2)))
    return _LevelLaw(total / dh, -dh / 24.0 * d1,
                     7.0 * dh ** 3 / 5760.0 * d3,
                     -31.0 * dh ** 5 / 967680.0 * d5)


class _LevelTable:
    """Line-of-sight levels of one link geometry, extended when a longer
    table is asked for: exact blocker products, each equal to its own
    ``np.prod``, up to the switch step, searched once a table passes 512
    steps, and the level law past it, so no entry depends on the order of
    requests."""

    def __init__(self, env: EnvironmentParams, bs_height: float,
                 ue_height: float) -> None:
        self.link = (env, bs_height, ue_height)
        self.levels = np.empty(0)
        self.switch, self.law = None, None
        self.mismatch: dict[int, float] = {}

    def _heights(self, k) -> np.ndarray:
        # Link heights at the k blockers of a link k steps long, for each
        # k in turn when k is an array of positive steps.
        _, bs_height, ue_height = self.link
        k = np.asarray(k)
        ks = np.repeat(k, k)
        j = np.arange(ks.size) - np.repeat(np.cumsum(k) - k, k)
        return bs_height + (j + 0.5) * (ue_height - bs_height) / ks

    def _products(self, ks: np.ndarray) -> np.ndarray:
        # Exact blocker products of entries ks: one clearance call and one
        # multiply.reduceat per block of about 8,192 heights, each product
        # in np.prod's order; entry 0 is the empty product, which reduceat
        # would not give.  Blocks stay below glibc's 128 KiB mmap
        # threshold: freeing a larger array raises it for the rest of the
        # process, which moved the Monte Carlo route's time and memory.
        out = np.ones(ks.size)
        live = np.flatnonzero(ks)
        block = np.cumsum(ks[live]) >> 13
        for part in np.split(live, np.flatnonzero(np.diff(block)) + 1):
            if part.size:
                k = ks[part]
                out[part] = np.multiply.reduceat(
                    _clearance(self._heights(k), self.link[0]),
                    np.cumsum(k) - k)
        return out

    def _extend(self, k_max: int, law=None) -> np.ndarray:
        # Entries up to k_max: exact products, or the law held below the
        # switch entry so that levels never increase across the switch.
        ks = np.arange(self.levels.size, k_max + 1)
        if ks.size:
            self.levels = np.concatenate([self.levels, self._products(ks)
                                          if law is None else np.minimum(
                np.exp(law(ks.astype(float))), self.levels[self.switch])])
            self.levels.setflags(write=False)
        return self.levels

    def _find_switch(self) -> None:
        # Take the law at the first candidate step k where it is within
        # 1e-13 max(1, |ln|) of the fsum of clearance logs at k and at 2k.
        env, (h_lo, h_hi) = self.link[0], sorted(self.link[1:])
        law = _level_law(env, h_lo, h_hi) if h_lo >= 1e-9 else None
        for k in _K_SWITCHES:
            self.switch = k
            if self._extend(k)[k] == 0.0:
                # Levels never increase: an underflowed product stays 0.
                self.law = _LevelLaw(-math.inf)
                return
            self.mismatch[k] = math.inf if law is None else max(
                abs(law(j) - ln) / max(1.0, abs(ln)) for j in (k, 2 * k)
                for ln in [math.fsum(_log_clearance(self._heights(j), env))])
            if self.mismatch[k] <= 1e-13:
                self.law = law
                return

    def upto(self, k_max: int) -> np.ndarray:
        if self.switch is None and k_max > _K_SWITCHES[0]:
            self._find_switch()
        end = min(k_max, self.switch or k_max)
        if k_max > end and self.law is None:
            raise QuadratureError(
                "step-table asymptotics failed validation",
                {"k_switch": end, "log_mismatch": self.mismatch})
        self._extend(end)
        return self._extend(k_max, self.law)[:k_max + 1]


@lru_cache(maxsize=64)
def _los_levels_exact(env: EnvironmentParams, bs_height: float,
                      ue_height: float) -> _LevelTable:
    return _LevelTable(env, bs_height, ue_height)


def los_exact_steps(env: EnvironmentParams, bs_height: float,
                    ue_height: float) -> int:
    """Last step of :func:`los_step_levels` that is an exact blocker
    product: the link geometry's switch, 4,000 until one is needed."""
    return _los_levels_exact(env, bs_height, ue_height).switch or _K_EXACT


def los_step_levels(env: EnvironmentParams, bs_height: float,
                    ue_height: float, k_max: int) -> np.ndarray:
    """Table of line-of-sight probabilities per step index.

    ``levels[k]`` is the probability on the k-th constant piece, i.e. for
    ground distances whose :func:`los_step_index` is ``k``;
    :func:`los_level_curve` reads it at ground distances.  Entry ``k`` does not depend on
    ``k_max`` as long as ``k <= k_max``, and never increases with ``k``.
    Entries are exact blocker products up to a per-geometry switch step
    (:func:`los_exact_steps`) and a validated Euler-Maclaurin law of the
    log-product beyond; equal heights collapse to a geometric decay.
    """
    if k_max < 0:
        raise DomainError("k_max must be non-negative")
    k_max = int(k_max)
    bs_height = float(bs_height)
    ue_height = float(ue_height)
    if bs_height == ue_height:
        f = float(_clearance(bs_height, env))
        out = np.zeros(k_max + 1)
        if f > 0.0:
            out[:] = np.exp(math.log(f) * np.arange(k_max + 1, dtype=float))
        else:
            out[0] = 1.0
        out.setflags(write=False)
        return out
    return _los_levels_exact(env, bs_height, ue_height).upto(k_max)


def los_step_index(r, env: EnvironmentParams):
    """Step of the line-of-sight level at ground distances ``r``,
    ``int(r / step)`` by truncation for the :func:`los_step_width`
    ``step``: an integer for a scalar ``r``, an integer array otherwise."""
    return (np.asarray(r, dtype=float) / los_step_width(env)).astype(
        np.intp)[()]


def los_level_curve(r, bs_height: float, ue_height: float,
                    env: EnvironmentParams):
    """Vectorized line-of-sight level over ground distances ``r``: the
    :func:`los_step_levels` entry of each distance's
    :func:`los_step_index`.  A NaN or infinite distance is refused."""
    r = np.asarray(r, dtype=float)
    # NaN and +inf both carry through the maximum, which sizes the table.
    r_max = float(np.max(r, initial=0.0))
    if not math.isfinite(r_max):
        raise DomainError(f"ground distances must be finite, got {r_max}")
    levels = los_step_levels(env, bs_height, ue_height,
                             int(los_step_index(r_max, env)))
    return np.take(levels, los_step_index(r, env),
                   mode="clip")   # a negative distance reads 1


def power_law_integral(u, du, p):
    """``int r (r^2 + gap^2)^(-p/2) dr`` for ``p > 2`` from the ground
    distance where ``r^2 + gap^2`` is ``u`` on to where it is ``u + du``
    (``du`` may be infinite), free of cancellation for small ``du``."""
    e = 1.0 - 0.5 * np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    return u ** e / (-2.0 * e) * -np.expm1(e * np.log1p(du / u))


def _step_integrals(k, step: float, gap2: float, p):
    return power_law_integral((k * step) ** 2 + gap2,
                              (2.0 * k + 1.0) * step * step, p)


@lru_cache(maxsize=256)
def _exact_sums(env: EnvironmentParams, bs_height: float, ue_height: float,
                powers: tuple[float, ...], n: int) -> tuple:
    # Per power, level-weighted step integrals summed from n - 1 down to k
    # = 1..n-1, rounding bounds, and the level at n times the tail beyond.
    step, gap2 = los_step_width(env), (bs_height - ue_height) ** 2
    p, k = np.array(powers)[:, None], np.arange(1, n)
    levels = los_step_levels(env, bs_height, ue_height, n)
    d = np.cumsum((levels[1:n] * _step_integrals(k, step, gap2, p))[:, ::-1],
                  axis=1)[:, ::-1]
    return d, (n - k + 4) * np.finfo(float).eps * d, levels[n] * \
        power_law_integral((n * step) ** 2 + gap2, np.inf, p)[:, 0]


@lru_cache(maxsize=256)
def _smooth_tail(env: EnvironmentParams, bs_height: float, ue_height: float,
                 powers: tuple[float, ...], k: int) -> tuple:
    # The smooth level law's first step (the table's validated law, held
    # below its last exact level, or equal heights' geometric decay) and
    # tail sums from k, or that step, by midpoint Euler-Maclaurin (DLMF
    # 2.10) for g = exp(law) times the step integral at x0 = k - 1/2:
    # int_{x0}^inf g + g'/24 - 7 g'''/5760, off by 31 |g^(5)| / 967680.
    # The integral runs on G7/K15 panels doubling from x0 until the law
    # falls by e^-50; the level there times the power-law tail bounds the
    # rest, and the law's excess over the cap at x0 the capped levels.
    step, gap2 = los_step_width(env), (bs_height - ue_height) ** 2
    if bs_height == ue_height:
        f = float(_clearance(bs_height, env))
        start, cap = 512, math.inf
        law = _LevelLaw(math.log(f) if f > 0.0 else -math.inf)
    else:
        table = _los_levels_exact(env, bs_height, ue_height)
        table.upto(_K_SWITCHES[0] + 1)
        start, law = table.switch + 1, table.law
        cap = float(table.upto(start)[start - 1])
    x0, p = max(k, start) - 0.5, np.array(powers)

    def tail(x):
        return power_law_integral((x * step) ** 2 + gap2, np.inf, p)

    if law.a in (0.0, -math.inf):    # every clearance 1, or none past 0
        return start, tail(x0 + 0.5) * (law.a == 0.0), np.zeros(p.size)
    width = min(x0, -1.0 / law.a)
    edges = x0 + width * (2.0 ** np.arange(min(math.ceil(math.log2(
        1.0 - 50.0 / (law.a * width))), 60) + 1) - 1.0)
    res = integrate_steps(
        lambda data, owner, weighted: np.exp(law(data[0])) * _step_integrals(
            data[0], step, gap2, p[:, None, None]),
        kronrod_panels(edges[:-1], edges[1:]), kronrod_panels,
        rel_tol=1e-13, abs_tol=0.0)[0]
    # Taylor coefficients of g at x0 (DLMF 1.10): exp of the law's, times
    # those of I(x) = F(x) - F(x + 1), F = u^e / (p - 2) the power-law
    # tail with u(x + t) = u + 2 x step^2 t + step^2 t^2.
    ln, e, lev = law.jets(x0, 5), 1.0 - 0.5 * p, []
    for m in range(6):
        lev.append(sum(j * ln[j] * lev[m - j] for j in range(1, m + 1)) / m
                   if m else math.exp(ln[0]))
    w = [[((x * step) ** 2 + gap2) ** e / (p - 2.0)] for x in (x0, x0 + 1.0)]
    for x, wx in zip((x0, x0 + 1.0), w):
        u = ((x * step) ** 2 + gap2, 2.0 * step * step * x, step * step)
        for m in range(1, 6):
            wx.append(sum(((e + 1.0) * j - m) * u[j] * wx[m - j]
                          for j in (1, 2) if j <= m) / (m * u[0]))
    piece = [_step_integrals(x0, step, gap2, p)] + [
        a - b for a, b in zip(w[0][1:], w[1][1:])]
    g = [sum(lev[j] * piece[m - j] for j in range(m + 1)) for m in range(6)]
    # g^(n) = n! g[n]: 7 * 3! / 5760 = 7 / 960 and 31 * 5! / 967680.
    return (start, res.values + g[1] / 24.0 - 7.0 / 960.0 * g[3],
            res.errors + 31.0 / 8064.0 * np.abs(g[5])
            + math.exp(law(edges[-1])) * tail(edges[-1])
            + max(lev[0] - cap, 0.0) * tail(x0))


def los_tail_sums(env: EnvironmentParams, bs_height: float, ue_height: float,
                  powers, cuts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line-of-sight and blocked shares ``(sight, blocked)`` of ``int_c^inf
    r (r^2 + gap^2)^(-p/2) dr`` for powers ``p > 2`` (rows) and ground-
    distance cuts ``c >= 0`` (columns), and certified errors of ``sight``:
    the level at ``c`` up to the first breakpoint ``K step`` at or past it,
    plus ``sum_{k >= K} levels[k] int_{k step}^{(k+1) step}``, summed
    exactly to the first of 64 to 512 steps, 32 past ``K``, where the
    level times the power-law tail beyond, which bounds the rest and adds
    to the error, is below half an ulp of the sum from step 1; else to the
    smooth level law and by Euler-Maclaurin beyond.  ``blocked`` is the
    rest of the closed form.  No value depends on the other cuts."""
    powers = tuple(float(p) for p in powers)
    cuts = np.asarray(cuts, dtype=float)
    step, gap2 = los_step_width(env), (bs_height - ue_height) ** 2
    p, u = np.array(powers)[:, None], cuts * cuts + gap2
    if min(powers, default=3.0) <= 2.0 or (cuts < 0.0).any() or not u.all():
        raise DomainError("tail sums need powers above 2 and cuts >= 0 "
                          "off a zero link distance")
    # First breakpoint K step >= each cut, K >= 1: ceil, then a 1-step fix.
    ks = np.maximum(np.ceil(cuts / step), 1.0).astype(np.int64)
    ks += ks * step < cuts
    ks -= (ks > 1) & ((ks - 1) * step >= cuts)
    geo = (env, bs_height, ue_height, powers)
    sums, errs = np.zeros((2, len(powers), cuts.size))
    for j, k in enumerate(ks.tolist()):
        for n in (64, 128, 256, 512):
            if k <= n - 32:
                d, rnd, rest = _exact_sums(*geo, n)
                if (rest <= 0.5 * np.finfo(float).eps * d[:, 0]).all():
                    sums[:, j], errs[:, j] = d[:, k - 1], rnd[:, k - 1] + rest
                    break
        else:
            start, sums[:, j], errs[:, j] = _smooth_tail(*geo, 0)
            if k < start:
                d, rnd, _ = _exact_sums(*geo, start)
                sums[:, j] += d[:, k - 1]
                errs[:, j] += rnd[:, k - 1]
            else:
                _, sums[:, j], errs[:, j] = _smooth_tail(*geo, k)
    part = ks * step != cuts    # cuts inside a step
    if part.any():
        k, c = ks[part], cuts[part]
        levels = los_step_levels(env, bs_height, ue_height, int(k.max()) - 1)
        sums[:, part] += levels[k - 1] * power_law_integral(
            u[part], (k * step - c) * (k * step + c), p)
    return sums, power_law_integral(u, np.inf, p) - sums, errs


def antenna_gain_curve(r, bs_height: float, ue_height: float,
                       pattern: AntennaPattern):
    """Vectorized antenna gain over ground distances ``r``: main-lobe
    gain inside the (inclusive) :func:`main_lobe_interval` of the link
    heights, side-lobe gain elsewhere."""
    r = np.asarray(r, dtype=float)
    lobe = main_lobe_interval(bs_height, ue_height, pattern)
    if lobe is None:
        return np.full(r.shape, pattern.gain_side)
    return np.where((r >= lobe[0]) & (r <= lobe[1]), pattern.gain_main,
                    pattern.gain_side)


def main_lobe_interval(bs_height: float, ue_height: float,
                       pattern: AntennaPattern) -> tuple[float, float] | None:
    """Ground-distance interval over which a user at ``ue_height`` sits in
    the main lobe, or ``None`` when no positive distance does.

    The depression angle is monotone in the ground distance, so the main
    lobe always maps to a single (possibly unbounded) interval.
    """
    lo_deg = pattern.downtilt_deg - 0.5 * pattern.beamwidth_deg
    hi_deg = pattern.downtilt_deg + 0.5 * pattern.beamwidth_deg
    gap = bs_height - ue_height
    if gap == 0.0:
        return (0.0, math.inf) if lo_deg <= 0.0 <= hi_deg else None
    if gap > 0.0:
        # Angle falls from 90 degrees toward 0 as distance grows.
        if hi_deg <= 0.0 or lo_deg >= 90.0:
            return None
        r_lo = 0.0 if hi_deg >= 90.0 else gap / math.tan(math.radians(hi_deg))
        r_hi = math.inf if lo_deg <= 0.0 else gap / math.tan(math.radians(lo_deg))
        return (r_lo, r_hi)
    # User above the base station: angle rises from -90 degrees toward 0.
    if lo_deg >= 0.0 or hi_deg <= -90.0:
        return None
    r_lo = 0.0 if lo_deg <= -90.0 else -gap / math.tan(math.radians(-lo_deg))
    r_hi = math.inf if hi_deg >= 0.0 else -gap / math.tan(math.radians(-hi_deg))
    return (r_lo, r_hi)


def gain_switch_radii(bs_height: float, ue_height: float,
                      pattern: AntennaPattern) -> list[float]:
    """Positive finite ground distances where the gain changes level.

    Empty when one gain level covers all distances (either the main lobe
    spans everything or it never points at this user height).
    """
    interval = main_lobe_interval(bs_height, ue_height, pattern)
    if interval is None:
        return []
    return [r for r in interval if 0.0 < r < math.inf]
