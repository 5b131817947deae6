"""Coverage probability of the downlink as seen by one user.

Base stations form a homogeneous Poisson field; the user attaches to the
nearest one and every other base station interferes.  Conditioned on the
serving distance the interference admits a Laplace transform in closed
integral form, and for integer Nakagami fading orders the conditional
coverage probability is a finite sum over derivatives of that transform.
This module evaluates those integrals numerically with certified
truncation: the line-of-sight field is cut only where its step level
times an exact power-law tail integral certifies the remaining mass
below tolerance, and the non-line-of-sight field beyond a closed-form
tail radius is summed as its leading power law.  In between, the
line-of-sight level is a step function; a Chebyshev product rule on a
panel grid cached per scenario moves the steps into per-node weights,
so a panel costs two dozen nodes however many steps it spans.  Each
panel is about one 3-d distance wide, and every line-of-sight cut is
moved out to the next grid edge on a breakpoint, which keeps it
certified, so the grid panels serve every cut unchanged.
Conditional terms that a closed-form Chernoff bound already certifies
below tolerance are skipped before any of that quadrature runs.

The inner transforms are array code: every serving distance that one
call of the outer integrand receives goes, per serving-link state,
through one skip screen, one lockstep cut search and batched panel
quadrature, where each panel carries the index of the transform it
belongs to.  Each transform still gets the cut, panels and error test it
would get alone.

Internally all derivative bookkeeping uses the scaled quantities
``t_j = s^j eta^(j) / j!`` and ``M_k = s^k L^(k) / k!``; every term of the
coverage sum is then non-negative and bounded, so the alternating-sign
derivative recursion cannot lose precision to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from .channel import (
    AntennaPattern,
    ChannelParams,
    EnvironmentParams,
    LinkGeometry,
    antenna_gain_curve,
    gain_switch_radii,
    los_breakpoints,
    los_exact_steps,
    los_level_curve,
    los_step_levels,
    los_step_width,
    main_lobe_interval,
    path_loss_curves,
)
from .errors import CapabilityError, DomainError, QuadratureError
from .quadrature import (CHEB_NODES, StepIntegrals, StepPanels, build_edges,
                         chebyshev_nodes, integrate_steps, kronrod_panels,
                         step_panels)

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
_NODE_BUDGET = 4096       # Chebyshev nodes per batch of inner transforms
_FLOOR_BLOCK = 2048       # step terms per block of the closed-form floor


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
    c = float(_serving_coeff(scn, r, los))
    x = s * c / m
    mag = math.perm(m + order - 1, order) * math.exp(
        order * math.log(c / m) - (m + order) * math.log1p(x))
    return mag if order % 2 == 0 else -mag


def _scaled_upsilon_rows(x: np.ndarray, m: int, orders: int,
                         out: np.ndarray | None = None) -> np.ndarray:
    # Row j (1-based) holds s^j |upsilon^(j)| / j! elementwise, which equals
    # the negative-binomial term C(m+j-1, j) x^j / (1+x)^(m+j) and is <= 1.
    # Each row is the previous one times x/(1+x) times (m+j-1)/j, from the
    # j = 0 term (1+x)^-m; the rows go to out[j - 1] when out is given.
    if out is None:
        out = np.empty((orders,) + np.shape(x))
    ratio = 1.0 + x
    np.divide(x, ratio, out=ratio)
    row = np.log1p(x)
    row *= -m
    np.exp(row, out=row)
    for j in range(1, orders + 1):
        row = np.multiply(row, ratio, out=out[j - 1])
        row *= (m + j - 1) / j
    return out


def _link_rows(c: np.ndarray, area: np.ndarray, s, m: int,
               orders: int) -> np.ndarray:
    # Integrand rows j = 0..orders of the transform log over links with
    # fading order m and mean received power c per unit fading, at
    # argument s: row 0 is one minus the attenuation, row j the scaled
    # attenuation derivative s^j |upsilon^(j)| / j!, each times area
    # (2 pi lam r), written in place.
    x = (s / m) * c
    out = np.empty((orders + 1,) + x.shape)
    row = out[0]
    np.log1p(x, out=row)
    row *= -m
    np.expm1(row, out=row)
    np.negative(row, out=row)
    if orders:
        _scaled_upsilon_rows(x, m, orders, out=out[1:])
    out *= area
    return out


@lru_cache(maxsize=256)
def _power_terms(alpha: float, m: int,
                 orders: int) -> tuple[tuple[float, int], ...]:
    # (coefficient, power q) per row j = 0..orders of a link with fading
    # order m: in its mean received power y the row is at most, and far
    # out tends to, C(m+j-1, j) / m^j y^q with q = max(j, 1).  The integer
    # ratio is rounded once, so it stays exact where m^j overflows a float.
    # The coefficient is divided by alpha q - 2, so that times d^2 it gives
    # the integral of that power law over r dr beyond 3-d distance d.
    return tuple(((1.0 if j == 0 else math.comb(m + j - 1, j) / m ** j)
                  / (alpha * max(j, 1) - 2.0), max(j, 1))
                 for j in range(orders + 1))


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple:
    # Concatenated index ranges [start, stop) and the entry each index
    # belongs to.
    counts = np.maximum(stops - starts, 0)
    entry = np.repeat(np.arange(starts.size), counts)
    return (np.arange(entry.size) + np.repeat(starts - np.cumsum(counts)
                                              + counts, counts), entry)


def _flat(*arrays) -> tuple:
    # Broadcast scalars or arrays together; the common shape and 1-D views.
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                   for a in arrays))
    return (arrays[0].shape, *(a.ravel() for a in arrays))


# --------------------------------------------------------------------------
# per-scenario precomputation


class _Field:
    """Cached geometry, step tables, panel grid and tail bounds for one
    scenario.  Its methods take arrays of serving distances and transform
    arguments and treat the entries as one batch."""

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
        # Panel grid of the inner transform, extended on demand; panels
        # below index _n_sight carry line-of-sight weights.
        self._edges = np.zeros(1)
        self._grid: StepPanels | None = None
        self._n_sight = 0

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

    def level_at(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return los_level_curve(
            r, self.levels_upto(int(r.max(initial=0.0) / self.step)),
            self.step)

    # ---------------------------------------------------------- tail bounds

    def excess_bound(self, s, orders: int, ml: int, mn: int, k) -> np.ndarray:
        """Certified bound on everything lost by zeroing the line-of-sight
        probability beyond step ``k``, for arguments ``s`` (broadcast
        against ``k``).

        Step levels never increase with distance, so the level at the cut
        majorizes the probability everywhere beyond it; each scaled
        attenuation row of either link state sits below an explicit power
        of the 3-d distance whose tail integral is exact.
        """
        scn = self.scn
        k = np.asarray(k)
        r = k * self.step
        zl, zn = path_loss_curves(r, scn.bs_height, scn.ue_height,
                                  scn.channel)
        c = np.asarray(s) * scn.tx_power * self.g_max
        tot = 0.0
        for z, alpha, m in ((zl, scn.channel.alpha_los, ml),
                            (zn, scn.channel.alpha_nlos, mn)):
            for coef, q in _power_terms(alpha, m, orders):
                tot = tot + coef * (c * z) ** q
        return self.levels_upto(int(k.max()))[k] * 2.0 * math.pi \
            * scn.bs_density * (r * r + self.gap2) * tot

    def _cut_search(self, k0: np.ndarray, s: np.ndarray, orders: int,
                    ml: int, mn: int, tol, cap: int) -> tuple:
        # Per entry, the smallest step whose excess bound fits under tol:
        # doubling from k0, then bisection to within hi // 16, all entries
        # in lockstep.  Also returns whether the cap was kept.
        tol = np.broadcast_to(tol, k0.shape)
        hi = k0.copy()
        ok = np.ones(k0.shape, dtype=bool)
        grow = np.arange(k0.size)
        while grow.size:
            grow = grow[self.excess_bound(s[grow], orders, ml, mn, hi[grow])
                        > tol[grow]]
            hi[grow] *= 2
            ok[grow[hi[grow] > cap]] = False
            grow = grow[hi[grow] <= cap]
        lo = hi // 2
        move = np.flatnonzero(ok & (hi != k0))
        while True:
            move = move[hi[move] - lo[move] > 1 + hi[move] // 16]
            if not move.size:
                return hi, ok
            mid = (lo[move] + hi[move]) // 2
            over = self.excess_bound(s[move], orders, ml, mn, mid) > tol[move]
            lo[move[over]] = mid[over]
            hi[move[~over]] = mid[~over]

    def choose_cut(self, r0: np.ndarray, s: np.ndarray, orders: int,
                   ml: int, mn: int) -> tuple[np.ndarray, np.ndarray]:
        """Line-of-sight cut step for each transform evaluation plus the
        tolerance it must meet, or step -1 and a transform-log lower bound
        in place of the tolerance where the transform is certified
        negligible.

        The cut is first sought at the strict absolute tolerance.  When
        slowly decaying step levels push it past a moderate table, the
        tolerance is relaxed to what the final accuracy actually needs: a
        transform-log error is a relative error of the transform, and once
        the transform log is very negative even a large log error leaves
        every output pinned near zero in absolute terms.
        """
        quad = self.quad
        k0 = np.maximum(self.k_start,
                        (r0 / self.step).astype(np.int64) + 1)
        k, ok = self._cut_search(k0, s, orders, ml, mn, 0.5 * quad.abs_tol,
                                 cap=20000)
        aux = np.full(r0.shape, quad.abs_tol)
        if ok.all():
            return k, aux
        redo = np.flatnonzero(~ok)
        eta_lb = self.eta_lower(r0[redo], s[redo])
        low = eta_lb <= _ETA_FLOOR
        k[redo[low]] = -1
        aux[redo[low]] = eta_lb[low]
        redo, eta_lb = redo[~low], eta_lb[~low]
        if redo.size:
            tol = np.maximum(
                np.maximum(quad.abs_tol, quad.rel_tol * np.abs(eta_lb)),
                quad.abs_tol * np.exp(np.minimum(-eta_lb, 60.0)))
            k[redo], ok = self._cut_search(k0[redo], s[redo], orders, ml, mn,
                                           0.5 * tol, cap=_MAX_TABLE - 1)
            if not ok.all():
                i = int(np.flatnonzero(~ok)[0])
                raise QuadratureError(
                    "line-of-sight interference mass decays too slowly for "
                    "the requested tolerance",
                    {"tolerance": float(tol[i]), "step_cap": _MAX_TABLE - 1,
                     "bound_at_cap": float(self.excess_bound(
                         s[redo[i]], orders, ml, mn, _MAX_TABLE - 1))})
            aux[redo] = tol
        return k, aux

    # --------------------------------------------------- far-field closed forms

    @cached_property
    def far_gain(self) -> tuple[float, float]:
        # Constant gain seen far out and the radius from which it applies.
        r_gain = max(self.switches, default=0.0)
        return float(self.gain_profile(2.0 * r_gain + 1.0)), r_gain

    def nlos_tail(self, s, orders: int, mn: int,
                  r) -> tuple[np.ndarray, np.ndarray]:
        """Non-line-of-sight rows beyond ``r`` (past every gain switch) in
        closed form, and the slack of that form per row, on a last axis
        after the broadcast shape of ``s`` and ``r``: each row becomes its
        leading power law ``m x`` or ``C(m+j-1, j) x^j``, whose tail
        integral is exact, off by a factor of at most ``(m + orders) x``
        with ``x`` taken at ``r``, where it is largest."""
        scn = self.scn
        g_far, _ = self.far_gain
        r = np.asarray(r, dtype=float)
        _, zn = path_loss_curves(r, scn.bs_height, scn.ue_height, scn.channel)
        y = np.asarray(s) * scn.tx_power * g_far * zn
        terms = _power_terms(scn.channel.alpha_nlos, mn, orders)
        tail = np.stack([coef * y ** q for coef, q in terms], axis=-1)
        tail *= (2.0 * math.pi * scn.bs_density
                 * (r * r + self.gap2))[..., None]
        return tail, (mn + orders) * (y / mn)[..., None] * tail

    def tail_start(self, s: np.ndarray, orders: int, mn: int, r0: np.ndarray,
                   slack: np.ndarray) -> np.ndarray:
        """Smallest radius beyond ``r0`` and the last gain switch from
        which every row of :meth:`nlos_tail` has at most ``slack``.  Each
        row's slack is ``B y^(q+1) d^2`` with ``y = a d^-alpha`` at the
        3-d distance ``d``, so it falls with ``d`` and is solved directly."""
        scn = self.scn
        g_far, r_gain = self.far_gain
        alpha = scn.channel.alpha_nlos
        ln_a = np.log(s * scn.tx_power * g_far * scn.channel.intercept_nlos)
        ln_slack = np.log(slack)
        ln_d = np.max([(math.log((mn + orders) / mn * 2.0 * math.pi
                                 * scn.bs_density * coef)
                        + (q + 1) * ln_a - ln_slack)
                       / (alpha * (q + 1) - 2.0)
                       for coef, q in _power_terms(alpha, mn, orders)],
                      axis=0)
        d2 = np.exp(np.minimum(2.0 * ln_d, 700.0))
        return np.maximum(np.maximum(r0, r_gain),
                          np.sqrt(np.maximum(d2 - self.gap2, 0.0)))

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

    def _link_integrand(self, s: np.ndarray, orders: int, ml: int, mn: int):
        # integrate_steps callback: the transform-log rows of
        # _link_rows over a line-of-sight link (weighted) or a
        # non-line-of-sight one, each panel at the argument of the
        # transform that owns it.
        def rows(data, owner, weighted):
            return _link_rows(data[0 if weighted else 1], data[2],
                              s[owner][:, None], ml if weighted else mn,
                              orders)
        return rows

    def _panels(self, lo: np.ndarray, hi: np.ndarray, ends,
                owner: np.ndarray | None = None) -> StepPanels:
        # Chebyshev panels [lo, hi] with the line-of-sight levels of the
        # steps below ends (one value or one per panel).
        return step_panels(lo, hi, self.node_data(chebyshev_nodes(lo, hi)),
                           self.step, self.levels_upto(int(np.max(ends))),
                           ends, owner)

    def _grid_to(self, r: float) -> np.ndarray:
        """Edges of the cached panel grid, extended past ``r`` to a
        line-of-sight breakpoint.  Panels are one 3-d distance
        ``hypot(x, gap)`` wide from their lower edge ``x``; wider than a
        step, they end on the first breakpoint past that width, and
        narrower, on the next breakpoint when they would come within a
        quarter panel of it, so each carries one level.  Every gain switch
        and the table cap's last step are edges."""
        step = self.step
        if self._edges[-1] > r:
            return self._edges
        edges = self._edges.tolist()
        start = len(edges) - 1
        x, k, cap = edges[-1], 0, _MAX_TABLE - 1
        while x <= r or k < 0:
            d = max(math.hypot(x, math.sqrt(self.gap2)), 1e-3 * step)
            k = int(x / step) + 1     # the next breakpoint
            k += k * step <= x
            if d >= step:
                k = math.ceil((x + d) / step)
            elif x + d <= k * step - 0.25 * d:
                k = -1
            # Edges with their step, -1 off the breakpoints.
            stops = [(x + d if k < 0 else k * step, k), (cap * step, cap),
                     *((w, -1) for w in self.switches)]
            x, k = min(stop for stop in stops if stop[0] > x)
            edges.append(x)
        self._edges = e = np.asarray(edges)
        new = self._panels(e[start:-1], e[start + 1:], 0)
        self._grid = new if start == 0 else StepPanels.concat([self._grid,
                                                               new])
        return e

    def integrate_rows(self, rows, r0: np.ndarray, k_sight: np.ndarray,
                       r_end: np.ndarray, *, rel_tol: float, abs_tol: float,
                       max_rounds: int) -> tuple:
        """Integrals over ``[r0, R]`` of ``level * rows_L + (1 - level) *
        rows_N``, one per entry of ``r0``, ``k_sight`` and ``r_end``: the
        cut is the first grid edge on a breakpoint at or past step
        ``k_sight``, the level is taken from the steps below it and is 0
        beyond; ``R`` is the cut, or the first grid edge at or past
        ``r_end`` when that lies beyond.  ``rows`` is an
        :func:`integrate_steps` callback whose owners are the entries.
        Returns the :class:`StepIntegrals`, ``R`` and the cut step per
        entry.

        Moving a cut out to an edge keeps it certified: the excess bound
        never increases with the step, and a prefix of a non-negative
        integrand only grows with it.  An entry's panels are the piece of
        the grid panel holding ``r0`` above ``r0``, the cached grid panels
        from there to the cut and, when ``R`` lies beyond, the grid panels
        up to ``R`` without weights.  Entries go in batches of about
        ``_NODE_BUDGET`` nodes, each with one :func:`step_panels` call for
        its pieces and one :func:`integrate_steps` call.
        """
        e = self._grid_to(max(k_sight.max() * self.step, r_end.max()))
        steps = np.round(e / self.step).astype(np.int64)
        cuts = steps[steps * self.step == e]
        k_sight = cuts[np.searchsorted(cuts, k_sight)]
        r_sight = k_sight * self.step
        i0 = np.searchsorted(e, r0, side="right") - 1
        ic = np.searchsorted(e, r_sight)
        n, top = self._n_sight, int(ic.max())
        if top > n:
            g = self._grid
            self._grid = StepPanels.concat([g[:n], self._panels(
                g.lo[n:top], g.hi[n:top], k_sight.max()), g[top:]])
            self._n_sight = top
        far = r_end > r_sight
        i_end = np.where(far, np.searchsorted(e, r_end), ic)
        nodes = CHEB_NODES * (i_end - i0)
        batch = (np.cumsum(nodes) - nodes) // _NODE_BUDGET
        bounds = [0, *(np.flatnonzero(np.diff(batch)) + 1), r0.size]
        results = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            own = np.arange(b - a)
            sight, sight_owner = _ranges(i0[a:b] + 1, ic[a:b])
            beyond, beyond_owner = _ranges(ic[a:b], i_end[a:b])
            panels = StepPanels.concat([
                self._grid[np.concatenate([sight, beyond])],
                self._panels(r0[a:b], e[i0[a:b] + 1], k_sight[a:b])])
            panels.owner = np.concatenate([sight_owner, beyond_owner, own])
            if beyond.size:
                # The grid panels past the cut lose their weights.
                unweighted = slice(sight.size, sight.size + beyond.size)
                panels.w0[unweighted] += panels.w1[unweighted]
                panels.w1[unweighted] = 0.0
                panels.top[unweighted] = panels.bottom[unweighted] = 0.0
            results.append(integrate_steps(
                lambda data, owner, weighted, a=a: rows(data, owner + a,
                                                        weighted), panels,
                lambda lo, hi, owner, a=a: self._panels(
                    lo, hi, k_sight[a + owner], owner),
                rel_tol=rel_tol, abs_tol=abs_tol,
                max_panels=self.quad.max_panels, max_rounds=max_rounds))
        res = StepIntegrals(*(np.concatenate([getattr(r, f.name)
                                              for r in results])
                              for f in fields(StepIntegrals)))
        return res, np.where(far, e[i_end], r_sight), k_sight

    def eta_lower(self, r0, s) -> np.ndarray:
        """Cheap lower bound on the transform log magnitude: the integrand
        is non-negative, so integrating a prefix of the range at unit
        fading orders under-counts it for any orders.  The prefix integral
        is loose, so its own error estimate is subtracted."""
        shape, r0, s = _flat(r0, s)
        r_end = np.maximum(self.quad.inner_radius_factor * self.r_outer,
                           1.25 * r0 + 2.0 * self.step)
        res, _, _ = self.integrate_rows(
            self._link_integrand(s, 0, 1, 1), r0,
            (r_end / self.step).astype(np.int64) + 1, np.zeros(r0.size),
            rel_tol=1e-3, abs_tol=1e-6, max_rounds=4)
        return -np.maximum(res.values[:, 0] - res.errors[:, 0],
                           0.0).reshape(shape)

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

    def eta_floor(self, r0, s, need=0.0) -> np.ndarray:
        """Closed-form lower bound on the transform log magnitude
        ``-ln L(s)`` at serving distance ``r0``, for any fading orders.

        Every interferer term ``1 - (1 + y/m)^-m`` is at least
        ``y / (1 + y)``, which grows with the mean received power ``y``;
        on each step interval the right endpoint and the smaller antenna
        gain minorize ``y`` and the level is constant, so a right-endpoint
        sum over the intervals beyond ``r0`` under-counts the integral.
        Entries where even ``y / (1 + y) <= y`` cannot lift the sum above
        ``need`` get the trivial bound 0 without that sum.
        """
        zl, zn, levels, area, tail = self._floor_steps
        shape, r0, s, need = _flat(r0, s, need)
        out = np.zeros(r0.size)
        k = (r0 / self.step).astype(np.int64)
        c = s * self.scn.tx_power * self.g_min
        live = np.flatnonzero(k < area.size)
        live = live[c[live] * tail[k[live]] > need[live]]
        # Blocks of at most _FLOOR_BLOCK terms, zero-weighted before each
        # entry's own first interval.
        per_block = max(1, _FLOOR_BLOCK // area.size)
        for a in range(0, live.size, per_block):
            i = live[a:a + per_block]
            k0 = int(k[i].min())
            lev = levels[k0:]
            terms = np.zeros((i.size, area.size - k0))
            for z, share in ((zl, lev), (zn, 1.0 - lev)):
                y = c[i, None] * z[k0:]
                y /= 1.0 + y
                y *= share
                terms += y
            weights = np.where(np.arange(k0, area.size) >= k[i, None],
                               area[k0:], 0.0)
            weights[np.arange(i.size), k[i] - k0] = (
                math.pi * self.scn.bs_density
                * np.maximum(((k[i] + 1) * self.step) ** 2 - r0[i] * r0[i],
                             0.0))
            out[i] = np.einsum("ij,ij->i", weights, terms)
        return out.reshape(shape)

    def coverage_negligible(self, r0, s, m: int, weight) -> np.ndarray:
        """Whether ``weight`` times the coverage of a serving link with
        fading order ``m`` and transform argument ``s = m T / c0`` is
        certified to be at most half of ``abs_tol``, per entry.

        For integer ``m`` that coverage is ``E[Q(m, s I)]``, and the
        Chernoff bound at one half gives ``Q(m, x) <= 2^m exp(-x/2)``,
        so it is at most ``2^m L(s/2)``.
        """
        need = np.log(np.asarray(weight) * 2.0 ** m
                      / (0.5 * self.quad.abs_tol))
        return self.eta_floor(r0, 0.5 * np.asarray(s), need) >= need

    def eta_scaled(self, r0, s, orders: int, ml: int | None = None,
                   mn: int | None = None) -> tuple[np.ndarray, dict]:
        """Scaled transform-log derivatives ``t_j = s^j eta^(j) / j!`` for
        ``j = 0..orders`` at serving distances ``r0`` and arguments ``s``,
        broadcast together, on a last axis; with a diagnostics dict of
        arrays of the same shape (``quad_errors`` per ``j`` as well).

        Optional fading-order overrides evaluate the field as if both link
        states had those orders; ``ml = mn = 1`` is the single-exponential
        special case.  Suppressed entries hold their transform-log lower
        bound in ``t_0`` and NaN in the diagnostics of the quadrature.
        """
        quad = self.quad
        scn = self.scn
        if ml is None:
            ml = scn.channel.m_los
        if mn is None:
            mn = scn.channel.m_nlos
        shape, r0, s = _flat(r0, s)
        k_cut, aux = self.choose_cut(r0, s, orders, ml, mn)
        low = k_cut < 0
        t = np.zeros((r0.size, orders + 1))
        t[low, 0] = aux[low]
        none = np.full(r0.size, np.nan)
        diag = {"suppressed": low, "eta_lower_bound": np.where(low, aux, none),
                "r_cut": none.copy(), "r_linear": none.copy(),
                "tolerance": np.where(low, none, aux),
                "cut_bound": none.copy(), "linear_slack": none.copy(),
                "num_panels": np.zeros(r0.size, dtype=np.int64),
                "num_evals": np.zeros(r0.size, dtype=np.int64),
                "quad_errors": np.full(t.shape, np.nan)}
        go = np.flatnonzero(~low)
        if go.size:
            r0, s, k_cut, aux = r0[go], s[go], k_cut[go], aux[go]
            res, r_end, k_cut = self.integrate_rows(
                self._link_integrand(s, orders, ml, mn), r0, k_cut,
                self.tail_start(s, orders, mn, r0, 0.25 * aux),
                rel_tol=quad.rel_tol, abs_tol=quad.abs_tol,
                max_rounds=quad.max_rounds)
            cut_bound = self.excess_bound(s, orders, ml, mn, k_cut)
            tail, slack = self.nlos_tail(s, orders, mn, r_end)
            vals = res.values + tail
            vals[:, 0] = -vals[:, 0]
            vals[:, 1::2] = -vals[:, 1::2]
            t[go] = vals
            diag["r_cut"][go] = k_cut * self.step
            diag["r_linear"][go] = r_end
            diag["cut_bound"][go] = cut_bound
            diag["linear_slack"][go] = slack.max(axis=1)
            diag["num_panels"][go] = res.num_panels
            diag["num_evals"][go] = res.num_evals
            diag["quad_errors"][go] = res.errors + slack + cut_bound[:, None]
        return t.reshape(shape + t.shape[1:]), {
            key: val.reshape(shape + val.shape[1:])[()]
            for key, val in diag.items()}


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
    # M_k = s^k L^(k) / k! computed by the scaled product recursion, over
    # the last axis of t.
    msums = np.empty(t.shape[:-1] + (m,))
    msums[..., 0] = np.exp(t[..., 0])
    for j in range(1, m):
        acc = 0.0
        for i in range(j):
            acc = acc + (j - i) / j * t[..., j - i] * msums[..., i]
        msums[..., j] = acc
    return msums


def _coverage_sum(t: np.ndarray, m: int) -> np.ndarray:
    # sum_k (-1)^k M_k over the last axis of t, clipped to a probability.
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    return np.clip(_coverage_terms(t, m) @ signs, 0.0, 1.0)


def _serving_coeff(scn: NetworkScenario, r0, los: bool) -> np.ndarray:
    # Mean received power per unit fading over serving links of ground
    # length r0 in the given state.
    r0 = np.asarray(r0, dtype=float)
    if (r0 < 0.0).any():
        raise DomainError("serving distance must be non-negative")
    if scn.bs_height == scn.ue_height and (r0 == 0.0).any():
        raise DomainError("path loss undefined at zero link distance")
    zl, zn = path_loss_curves(r0, scn.bs_height, scn.ue_height, scn.channel)
    lobe = main_lobe_interval(scn.bs_height, scn.ue_height, scn.pattern)
    return scn.tx_power * antenna_gain_curve(r0, lobe, scn.pattern) * (
        zl if los else zn)


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
    # line-of-sight cut.  The tolerance is relative to the field's scale
    # alone: the moment is of order 1e-9, far below abs_tol.
    _, r_gain = fld.far_gain
    k_lin = int(max(r0, r_gain, fld.step) / fld.step) + 1
    r_lin = k_lin * fld.step
    scale = float(fld.nlos_tail(1.0, 0, 1, r_lin)[0][0]
                  + fld.excess_bound(1.0, 0, 1, 1, k_lin))
    tol = qd.rel_tol * scale
    k_cut, ok = fld._cut_search(np.array([max(fld.k_start, k_lin + 1)]),
                                np.ones(1), 0, 1, 1, 0.5 * tol,
                                cap=_MAX_TABLE - 1)
    if not ok[0]:
        raise QuadratureError(
            "line-of-sight interference mass decays too slowly for the "
            "requested tolerance",
            {"tolerance": tol, "step_cap": _MAX_TABLE - 1})
    res, r_end, _ = fld.integrate_rows(
        lambda data, owner, weighted: (data[0 if weighted else 1]
                                       * data[2])[None],
        np.array([float(r0)]), k_cut, np.array([r_lin]),
        rel_tol=qd.rel_tol, abs_tol=tol, max_rounds=qd.max_rounds)
    return float(res.values[0, 0] + fld.nlos_tail(1.0, 0, 1, r_end[0])[0][0])


def conditional_coverage(scn: NetworkScenario, r0: float, serving_los: bool,
                         quad: QuadratureSpec | None = None) -> float:
    """Coverage probability given the serving distance and the serving
    link's line-of-sight state."""
    quad = quad or QuadratureSpec()
    m = scn.channel.fading_order(serving_los)
    _require_order(m)
    fld = _field_for(scn, quad)
    s = m * scn.sir_threshold / _serving_coeff(scn, r0, serving_los)
    t, _ = fld.eta_scaled(r0, s, m - 1)
    return float(_coverage_sum(t, m))


def _integrate_outer(fld: _Field, ml: int,
                     mn: int) -> tuple[float, float, dict]:
    """Coverage averaged over serving distance and serving-link state,
    with fading order ``ml`` (``mn``) on every line-of-sight
    (non-line-of-sight) link, serving or interfering.

    Each call of the outer integrand evaluates the inner transforms of all
    its serving distances as one batch per serving-link state.  Terms that
    :meth:`_Field.coverage_negligible` certifies are skipped; each is at
    most half of ``abs_tol`` times the serving-distance density, so both
    states together lose at most ``abs_tol`` over the integral, which is
    added to the error estimate once.
    """
    quad = fld.quad
    scn = fld.scn
    thr = scn.sir_threshold
    skipped = inner_evals = inner_panels = 0

    def integrand(data, owner, weighted) -> np.ndarray:
        # Density times conditional coverage at the panel nodes.
        nonlocal skipped, inner_evals, inner_panels
        r0 = data[0].ravel()
        p_los = fld.level_at(r0)
        total = np.zeros(r0.size)
        for los, m, weight in ((True, ml, p_los), (False, mn, 1.0 - p_los)):
            go = np.flatnonzero(weight != 0.0)
            if not go.size:
                continue
            s = m * thr / _serving_coeff(scn, r0[go], los)
            low = fld.coverage_negligible(r0[go], s, m, weight[go])
            skipped += int(low.sum())
            go, s = go[~low], s[~low]
            if not go.size:
                continue
            t, info = fld.eta_scaled(r0[go], s, m - 1, ml, mn)
            inner_evals += int(info["num_evals"].sum())
            inner_panels += int(info["num_panels"].sum())
            total[go] += weight[go] * _coverage_sum(t, m)
        return (serving_distance_pdf(r0, scn.bs_density)
                * total).reshape(data.shape)

    edges = build_edges(0.0, fld.r_outer, [
        *los_breakpoints(scn.env, fld.r_outer), *fld.switches])
    res = integrate_steps(integrand, kronrod_panels(edges[:-1], edges[1:]),
                          kronrod_panels, rel_tol=quad.rel_tol,
                          abs_tol=quad.abs_tol, max_panels=4096,
                          max_rounds=8)[0]
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
        "los_table_steps": max(fld._levels.size - 1, 0),
        "los_exact_steps": los_exact_steps(scn.env, scn.bs_height,
                                           scn.ue_height),
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

    Independent of the fading orders configured in the scenario: this is
    the outer integral of :func:`coverage_probability` at unit fading
    orders on every link, the same code path, so at unit orders the two
    agree by construction.
    """
    quad = quad or QuadratureSpec()
    prob, err, diag = _integrate_outer(_field_for(scn, quad), 1, 1)
    return CoverageResult(prob, err, "rayleigh", diag)
