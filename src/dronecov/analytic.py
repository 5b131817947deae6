"""Coverage probability of the downlink as seen by one user.

Base stations form a homogeneous Poisson field; the user attaches to the
nearest one and every other base station interferes.  Conditioned on the
serving distance the interference admits a Laplace transform in closed
integral form, and for integer Nakagami fading orders the conditional
coverage probability is a finite sum over derivatives of that transform.
This module evaluates those integrals numerically with certified
tails: past a line-of-sight handover on a grid edge, and past a
blocked-field radius, every row is its leading power law and is off
from it by at most the next power law, its slack; both laws come from
one table per handover and multiply the power-law tails of
:func:`channel.power_law_integral` and :func:`channel.los_tail_sums`,
so both link states follow one slack rule, kept inside the tolerance.
Before them a Chebyshev product rule on a panel grid cached per
scenario moves the line-of-sight steps into per-node weights, so a
panel of about one 3-d distance costs two dozen nodes however many
steps it spans.  Conditional terms that a closed-form Chernoff bound
already certifies below tolerance are skipped.  Every serving distance
one call of the outer integrand receives goes, per serving-link state,
through one skip screen, whose floor pass also sets the handover
tolerance, one handover choice and panel quadrature in batches of about
``_NODE_BUDGET`` nodes, and gets the handover, panels and error test it
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
    antenna_gain_curve,
    gain_switch_radii,
    los_breakpoints,
    los_exact_steps,
    los_level_curve,
    los_step_levels,
    los_step_width,
    los_tail_sums,
    path_gain_curve,
    path_loss_curves,
    power_law_integral,
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
    "laplace_interference",
    "laplace_derivatives",
    "mean_interference",
    "conditional_coverage",
    "coverage_probability",
]

# Largest fading order the derivative recursion is evaluated for.  The sum
# has m terms; far beyond this the model is indistinguishable from no fading
# and the factorials stop being representable anyway.
MAX_FADING_ORDER = 32

_MAX_TABLE = 400_000      # hard cap on step-table length
_STRICT_STEPS = 20_000    # reach of a handover at the strict tolerance
_NODE_BUDGET = 16384      # Chebyshev nodes per batch of inner transforms
_FLOOR_BLOCK = 1 << 16    # step terms per block of the closed-form floor


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy of the analytic evaluation.

    ``outer_trunc_prob`` is the serving-distance probability mass allowed
    beyond the outer integration limit.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    outer_trunc_prob: float = 1e-8

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("tolerances must be positive")
        if not 0.0 < self.outer_trunc_prob < 0.1:
            raise DomainError("outer_trunc_prob must lie in (0, 0.1)")


@dataclass
class CoverageResult:
    probability: float
    error_estimate: float
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


def _scaled_attenuation_rows(x: np.ndarray, m: int, orders: int,
                             out: np.ndarray | None = None) -> np.ndarray:
    # Row j (1-based) holds s^j |A^(j)(s)| / j! elementwise, A(s) = (1 +
    # x)^-m with x = s c / m the attenuation of one link averaged over its
    # unit-mean gamma fading; that is the negative-binomial term
    # C(m+j-1, j) x^j / (1+x)^(m+j), which is <= 1.
    # Each row is the previous one times x/(1+x) times (m+j-1)/j, from the
    # j = 0 term (1+x)^-m, which waits in out[-1] until the last row; the
    # rows (orders >= 1) go to out[j - 1] when out is given.
    if out is None:
        out = np.empty((orders,) + np.shape(x))
    ratio = 1.0 + x
    np.divide(x, ratio, out=ratio)
    row = np.log1p(x, out=out[-1])
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
    # attenuation derivative of _scaled_attenuation_rows, each times area
    # (2 pi lam r), written in place: row 0 starts as x = s c / m.
    out = np.empty((orders + 1,) + np.broadcast_shapes(np.shape(s), c.shape))
    x = np.multiply(s / m, c, out=out[0])
    if orders:
        _scaled_attenuation_rows(x, m, orders, out=out[1:])
    np.log1p(x, out=x)
    x *= -m
    np.expm1(x, out=x)
    np.negative(x, out=x)
    out *= area
    return out


def _row_coefs(m: int, orders: int) -> list[tuple[float, int]]:
    # (c, q) per row j = 0..orders of a link with fading order m: in its
    # mean received power y the row is at most, and far out tends to,
    # c y^q, c = C(m+j-1, j) / m^j rounded once, exact past float m^j.
    return [(math.comb(m + j - 1, j) / m ** j, max(j, 1))
            for j in range(orders + 1)]


def _log(x: np.ndarray) -> np.ndarray:
    # ln x, -inf where x is 0, without a warning.
    return np.log(x, out=np.full(np.shape(x), -np.inf), where=x > 0.0)


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
    """Cached geometry, step tables, panel grid and tail sums for one
    scenario.  Its methods take arrays of serving distances and transform
    arguments and treat the entries as one batch."""

    def __init__(self, scn: NetworkScenario, quad: QuadratureSpec) -> None:
        if min(scn.channel.alpha_los, scn.channel.alpha_nlos) <= 2.0:
            raise DomainError("path-loss exponents must exceed 2; the "
                              "interference field has infinite mean otherwise")
        self.scn = scn
        self.quad = quad
        self.step = los_step_width(scn.env)
        self.switches = gain_switch_radii(scn.bs_height, scn.ue_height,
                                          scn.pattern)
        self.gap2 = (scn.bs_height - scn.ue_height) ** 2
        self.area = 2.0 * math.pi * scn.bs_density
        self.r_outer = math.sqrt(
            math.log(1.0 / quad.outer_trunc_prob)
            / (math.pi * scn.bs_density))
        self._levels = np.empty(0)
        # Panel grid, extended on demand, with line-of-sight weights below
        # _n_sight, and tail sums per power set at its handover candidates.
        self._edges = np.zeros(1)
        self._grid = self._panels(np.zeros(0), np.zeros(0), 0)
        self._n_sight = 0
        self._cuts, self._cut_edges = np.empty(0, dtype=np.int64), 0
        self._tails: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    # ---------------------------------------------------------- step table

    def levels_upto(self, k_max: int) -> np.ndarray:
        # Handovers and the floor stay below _MAX_TABLE steps.
        if self._levels.size <= k_max:
            self._levels = np.asarray(los_step_levels(
                self.scn.env, self.scn.bs_height, self.scn.ue_height,
                int(k_max)))
        return self._levels

    def level_at(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return los_level_curve(
            r, self.levels_upto(int(r.max(initial=0.0) / self.step)),
            self.step)

    # --------------------------------------------------- far-field closed forms

    @cached_property
    def far_gain(self) -> tuple[float, float]:
        # Constant gain seen far out and the radius from which it applies.
        r_gain = max(self.switches, default=0.0)
        scn = self.scn
        return float(antenna_gain_curve(2.0 * r_gain + 1.0, scn.bs_height,
                                        scn.ue_height, scn.pattern)), r_gain

    def los_tails(self, powers: tuple, end: float) -> tuple:
        """Handover candidates (grid edges on breakpoints past the last
        gain switch) to the first past ``end`` or as far as sums are at
        hand, and :func:`los_tail_sums`' line-of-sight shares and errors
        there, rows per power."""
        scn, e = self.scn, self._grid_to(end)
        if self._cut_edges != e.size:
            steps = np.round(e / self.step).astype(np.int64)
            self._cuts = steps[(steps * self.step == e) & (steps > 0)
                               & (steps < _MAX_TABLE)
                               & (e >= self.far_gain[1])]
            self._cut_edges = e.size
        vals, errs = self._tails.get(powers, (np.zeros((len(powers), 0)),) * 2)
        n = max(np.searchsorted(self._cuts * self.step, end, side="right") + 1,
                vals.shape[1])
        if vals.shape[1] < n:
            more = los_tail_sums(scn.env, scn.bs_height, scn.ue_height, powers,
                                 self._cuts[vals.shape[1]:n] * self.step)
            vals, errs = self._tails[powers] = (np.hstack([vals, more[0]]),
                                                np.hstack([errs, more[2]]))
        return self._cuts[:n], vals[:, :n], errs[:, :n]

    def handover(self, r0: np.ndarray, s: np.ndarray, orders: int,
                 floor: np.ndarray | None = None) -> tuple:
        """Per entry, the line-of-sight handover step ``K``, the radius
        ``R`` past which the blocked field is closed-form too, the rows
        beyond both, their errors, and the largest line-of-sight and
        blocked slacks.  Past the handover each row of state ``i`` is its
        power law ``2 pi lam c y_i^q`` (:func:`_row_coefs`), ``y_i = s P
        g A_i d^-alpha_i``, off by at most its slack law, the next power
        times ``1 + orders / m_i``.  Every closed form is a law from one table
        built here times a power-law tail: the blocked laws over all of
        :func:`power_law_integral` beyond ``R``, and each state's over the
        line-of-sight share of :func:`los_tail_sums` beyond ``K step``,
        the blocked one subtracted and the sums' errors in the slack.
        ``R`` is solved per row for a blocked slack of a quarter of the
        tolerance, and ``K`` is the first candidate past ``r0`` where the
        rest fits that quarter, read off all candidates at once.
        ``floor`` is :meth:`eta_floor` at ``r0`` and ``s`` when at hand."""
        quad, scn, ch = self.quad, self.scn, self.scn.channel
        g_far, r_gain = self.far_gain
        # Sums up to one past the largest power any row of the scenario's
        # orders needs, shared; state i's alpha_i q is at i top + q - 1.
        top = max(orders, ch.m_los - 1, ch.m_nlos - 1, 1) + 1
        powers = tuple(alpha * q for alpha in (ch.alpha_los, ch.alpha_nlos)
                       for q in range(1, top + 1))
        p = np.array(powers)[:, None]
        # The law table, (state, row, entry): each row's law, its slack
        # law and the index of the law's power, the slack's the next.
        ln_y = np.log(np.multiply.outer(
            [ch.intercept_los, ch.intercept_nlos], s * scn.tx_power * g_far))
        ms = np.array([ch.m_los, ch.m_nlos])
        coefs = [_row_coefs(m, orders) for m in ms.tolist()]
        law = np.array([[math.log(self.area * c) + q * ln_y[i]
                         for c, q in rows] for i, rows in enumerate(coefs)])
        slack = law + (ln_y + np.log1p(orders / ms)[:, None])[:, None]
        at = np.array([[i * top + q - 1 for _, q in rows]
                       for i, rows in enumerate(coefs)])

        def ln_slack(i, sums, errs):
            # ln of the largest row slack past each candidate, per entry i.
            ln_t = np.concatenate([slack[:, :, i, None]
                                   + _log(sums)[at + 1][:, :, None],
                                   law[:, :, i, None]
                                   + _log(errs)[at][:, :, None]])
            return np.logaddexp.reduce(ln_t, axis=0).max(axis=0)

        # A transform-log error is a relative error of the transform: keep
        # it within rel_tol min(L, 1), L the floor of -eta, or where the
        # floor's last level does not certify a fit by _STRICT_STEPS, grow
        # it to rel_tol L or abs_tol e^min(L, 60), within abs_tol outputs.
        low = self.eta_floor(r0, s) if floor is None else floor
        tol = np.maximum(quad.abs_tol, quad.rel_tol * np.minimum(low, 1.0))
        far = self._floor_steps[1][0, -1] * power_law_integral(
            (_STRICT_STEPS * self.step) ** 2 + self.gap2, np.inf, p)
        loose = ln_slack(np.arange(r0.size), far, 0.0 * far)[:, 0] \
            > np.log(0.25 * tol)
        tol[loose] = np.maximum(quad.abs_tol * np.exp(np.minimum(low, 60.0)),
                                quad.rel_tol * low)[loose]
        # R: the blocked slack beyond 3-d distance d is e^slack d^(2 - p)
        # / (p - 2) at p = alpha_N (q + 1), which falls with d; d^2 past
        # e^700 would overflow.
        pn = p[at[1] + 1]
        ln_d2 = ((slack[1] - np.log(pn - 2.0) - np.log(0.25 * tol))
                 / (0.5 * pn - 1.0)).max(axis=0)
        r_end = np.maximum(np.maximum(r0, r_gain), np.sqrt(np.maximum(
            np.exp(np.minimum(ln_d2, 700.0)) - self.gap2, 0.0)))
        self._grid_to(r_end.max())
        pick, seen, end = np.full(r0.size, -1), 0, max(r0.max(), r_gain)
        while (pick < 0).any():
            # Candidates past end or with sums at hand; each open entry
            # takes its first new one that fits.
            if seen and ks[-1] >= _MAX_TABLE - 1:
                i = np.flatnonzero(pick < 0)[0]
                raise QuadratureError("line-of-sight tail slack exceeds its "
                                      "tolerance at the step-table cap", {
                    "tolerance": tol[i], "r0": r0[i], "s": s[i]})
            ks, vals, errs = self.los_tails(powers, end)
            i = np.flatnonzero(pick < 0)
            fits = ((ln_slack(i, vals[:, seen:], errs[:, seen:])
                     <= np.log(0.25 * tol[i])[:, None])
                    & (ks[seen:] * self.step > r0[i, None]))
            hit = fits.any(axis=1)
            pick[i[hit]] = seen + fits[hit].argmax(axis=1)
            seen, end = ks.size, min(4 * ks[-1], _MAX_TABLE - 1) * self.step
        e = self._edges
        r_end = e[np.searchsorted(e, np.maximum(ks[pick] * self.step, r_end))]
        # Each law times its tail: all of it beyond R for the blocked laws,
        # the line-of-sight share and its error beyond K for both states.
        ln_u = _log(power_law_integral(r_end ** 2 + self.gap2, np.inf, p))
        ln_t, ln_e = _log(vals[:, pick]), _log(errs[:, pick])
        nlos_slack = np.exp(slack[1] + ln_u[at[1] + 1]).T
        los_err = (np.exp(slack + ln_t[at + 1])
                   + np.exp(law + ln_e[at])).sum(axis=0).T
        tail = np.exp(law[1] + ln_u[at[1]]) + (np.exp(law[0] + ln_t[at[0]])
                                               - np.exp(law[1] + ln_t[at[1]]))
        return ks[pick], r_end, tail.T, nlos_slack + los_err, \
            los_err.max(axis=1), nlos_slack.max(axis=1)

    # ------------------------------------------------------------ integrand

    def node_data(self, r: np.ndarray) -> np.ndarray:
        """Per-node inputs of the integrand rows at ground distances ``r``:
        the mean received power per unit fading over a line-of-sight and
        over a non-line-of-sight link, and ``2 pi lam r``."""
        scn = self.scn
        zl, zn = path_loss_curves(r, scn.bs_height, scn.ue_height,
                                  scn.channel)
        power = scn.tx_power * antenna_gain_curve(r, scn.bs_height,
                                                  scn.ue_height, scn.pattern)
        return np.array([power * zl, power * zn, self.area * r])

    def _link_integrand(self, s: np.ndarray, orders: int):
        # integrate_steps callback: the transform-log rows of
        # _link_rows over a line-of-sight link (weighted) or a
        # non-line-of-sight one, each panel at the argument of the
        # transform that owns it.
        ch = self.scn.channel

        def rows(data, owner, weighted):
            return _link_rows(data[0 if weighted else 1], data[2],
                              s[owner][:, None], ch.fading_order(weighted),
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
        and the table cap's last step are edges.  The panels themselves
        are built when :meth:`integrate_rows` first reaches them."""
        step = self.step
        if self._edges[-1] > r:
            return self._edges
        edges = self._edges.tolist()
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
        self._edges = np.asarray(edges)
        return self._edges

    def integrate_rows(self, rows, r0: np.ndarray, k_sight: np.ndarray,
                       r_end: np.ndarray, *, rel_tol: float,
                       abs_tol: float) -> StepIntegrals:
        """Integrals over ``[r0, r_end]`` of ``level * rows_L + (1 - level)
        * rows_N``, the level from the steps below ``k_sight`` and 0
        beyond, per entry: each ``k_sight`` a handover candidate past
        ``r0`` and ``r_end`` a grid edge at or past it; ``rows`` is an
        :func:`integrate_steps` callback whose owners are the entries.
        An entry's panels are the part of the grid panel holding ``r0``
        above it and the grid panels on to ``r_end``, without weights
        past the handover.  Entries go in batches of about
        ``_NODE_BUDGET`` nodes, one :func:`integrate_steps` call each.
        """
        e = self._grid_to(r_end.max())
        i0 = np.searchsorted(e, r0, side="right") - 1
        ic = np.searchsorted(e, k_sight * self.step)
        i_end = np.searchsorted(e, r_end)
        # One build for the entries' pieces above r0, the grid panels on
        # edges added since and the weights of those below the furthest
        # handover, line-of-sight levels to it.
        n, top = self._n_sight, max(int(ic.max()), self._n_sight)
        g, built = self._grid, self._grid.lo.size
        first = n if top > n else built
        last = max(e.size - 1 if built < e.size - 1 else top, first)
        new = self._panels(
            np.concatenate([r0, e[first:last]]),
            np.concatenate([e[i0 + 1], e[first + 1:last + 1]]),
            np.concatenate([k_sight, np.where(np.arange(first, last) < top,
                                              k_sight.max(), 0)]))
        pieces = new[:r0.size]
        if first < last:
            self._grid = StepPanels.concat([g[:first], new[r0.size:],
                                            g[last:]])
            self._n_sight = top
        nodes = CHEB_NODES * (i_end - i0)
        batch = (np.cumsum(nodes) - nodes) // _NODE_BUDGET
        bounds = [0, *(np.flatnonzero(np.diff(batch)) + 1), r0.size]
        results = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            sight, sight_owner = _ranges(i0[a:b] + 1, ic[a:b])
            beyond, beyond_owner = _ranges(ic[a:b], i_end[a:b])
            # One gather, weighted panels first as integrate_steps takes
            # them: each entry's grid panel holding r0 sits between those
            # with weights and those past the handover, and then takes
            # the part above r0.
            panels = self._grid[np.concatenate([sight, i0[a:b], beyond])]
            panels[sight.size:sight.size + b - a] = pieces[a:b]
            panels.owner = np.concatenate([sight_owner, np.arange(b - a),
                                           beyond_owner])
            if beyond.size:
                # The grid panels past the handover lose their weights.
                unweighted = slice(panels.lo.size - beyond.size, None)
                panels.w0[unweighted] += panels.w1[unweighted]
                panels.w1[unweighted] = 0.0
                panels.top[unweighted] = panels.bottom[unweighted] = 0.0
            results.append(integrate_steps(
                lambda data, owner, weighted, a=a: rows(data, owner + a,
                                                        weighted), panels,
                lambda lo, hi, owner, a=a: self._panels(
                    lo, hi, k_sight[a + owner], owner),
                rel_tol=rel_tol, abs_tol=abs_tol))
        return StepIntegrals(*(np.concatenate([getattr(r, f.name)
                                               for r in results])
                               for f in fields(StepIntegrals)))

    @cached_property
    def _floor_steps(self) -> tuple[np.ndarray, ...]:
        # Step intervals out to 40 outer radii (four times ten, rounded up
        # to steps): path gains at their right endpoints, step levels and
        # their complements, the mass of 2 pi lam r dr on each interval,
        # and suffix sums of that mass times the larger path gain.
        scn = self.scn
        n = min(4 * (int(10.0 * self.r_outer / self.step) + 1),
                _MAX_TABLE - 1)
        right = self.step * np.arange(1, n + 1, dtype=float)
        zl, zn = path_loss_curves(right, scn.bs_height, scn.ue_height,
                                  scn.channel)
        levels = self.levels_upto(n)[:n]
        area = math.pi * scn.bs_density * (right ** 2
                                           - (right - self.step) ** 2)
        tail = np.cumsum((area * np.maximum(zl, zn))[::-1])[::-1]
        return (np.stack([zl, zn]), np.stack([levels, 1.0 - levels]), area,
                tail)

    def eta_floor(self, r0, s, need=0.0) -> np.ndarray:
        """Closed-form lower bound on the transform log magnitude
        ``-ln L(s)`` at serving distance ``r0``, for any fading orders.

        Every interferer term ``1 - (1 + y/m)^-m`` is at least
        ``y / (1 + y)``, which grows with the mean received power ``y``;
        on each step interval the right endpoint and the smaller antenna
        gain minorize ``y`` and the level is constant, so a right-endpoint
        sum over the intervals beyond ``r0`` under-counts the integral.
        Entries where even ``y / (1 + y) <= y`` cannot lift the sum above
        ``need`` get the trivial bound 0 without that sum.  Axes of ``s``
        or ``need`` before those of ``r0`` hold arguments that share its
        interval weights in one pass, each floor as its own call gives it.
        """
        z, shares, area, tail = self._floor_steps
        shape = np.broadcast_shapes(np.shape(r0), np.shape(s), np.shape(need))
        r0 = np.broadcast_to(r0, shape[len(shape) - np.ndim(r0):]).ravel()
        s, need = (np.broadcast_to(x, shape).reshape(-1, r0.size)
                   for x in (s, need))
        out = np.zeros(s.shape)
        k = (r0 / self.step).astype(np.int64)
        pattern = self.scn.pattern
        c = s * self.scn.tx_power * min(pattern.gain_main, pattern.gain_side)
        idle = c * tail[np.minimum(k, area.size - 1)] <= need
        live = np.flatnonzero((k < area.size) & ~idle.all(axis=0))
        # Blocks of at most _FLOOR_BLOCK terms per argument, zero-weighted
        # before each entry's own first interval.
        per_block = max(1, _FLOOR_BLOCK // area.size)
        for a in range(0, live.size, per_block):
            i = live[a:a + per_block]
            k0 = int(k[i].min())
            weights = np.where(np.arange(k0, area.size) >= k[i, None],
                               area[k0:], 0.0)
            weights[np.arange(i.size), k[i] - k0] = (
                math.pi * self.scn.bs_density
                * np.maximum(((k[i] + 1) * self.step) ** 2 - r0[i] * r0[i],
                             0.0))
            y = np.empty((i.size,) + z[:, k0:].shape)
            for row, ci, skip in zip(out, c[:, i], idle[:, i]):
                go = np.flatnonzero(~skip)
                y_go = np.multiply.outer(ci[go], z[:, k0:], out=y[:go.size])
                y_go /= 1.0 + y_go
                y_go *= shares[:, k0:]
                row[i[go]] = np.einsum("ij,ij->i", weights[go],
                                       y_go.sum(axis=1))
        return out.reshape(shape)

    def coverage_negligible(self, r0, s, m: int,
                            weight) -> tuple[np.ndarray, np.ndarray]:
        """Whether ``weight`` times the coverage of a serving link with
        fading order ``m`` and transform argument ``s = m T / c0`` is
        certified to be at most half of ``abs_tol``, per entry; and, from
        the same :meth:`eta_floor` pass, the floor at ``s``, which sets the
        handover tolerance of the entries kept.

        For integer ``m`` that coverage is ``E[Q(m, s I)]``, and the
        Chernoff bound at one half gives ``Q(m, x) <= 2^m exp(-x/2)``,
        so it is at most ``2^m L(s/2)``.
        """
        r0, s, need = np.broadcast_arrays(r0, s, np.log(
            np.asarray(weight) * 2.0 ** m / (0.5 * self.quad.abs_tol)))
        half, full = self.eta_floor(r0, [0.5 * s, s],
                                    [need, np.zeros_like(need)])
        return half >= need, full

    def eta_scaled(self, r0, s, orders: int,
                   floor: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
        """Scaled transform-log derivatives ``t_j = s^j eta^(j) / j!`` for
        ``j = 0..orders`` at serving distances ``r0`` and arguments ``s``,
        broadcast together, on a last axis; with a diagnostics dict of
        arrays of the same shape (``quad_errors`` per ``j`` as well).

        The field is integrated up to :meth:`handover` and closed beyond.
        ``floor``, :meth:`eta_floor` at ``r0`` and ``s``, spares the
        handover its own pass.
        """
        quad = self.quad
        shape, r0, s = _flat(r0, s)
        k, r_end, tail, tail_err, los_err, slack = self.handover(
            r0, s, orders, floor)
        res = self.integrate_rows(
            self._link_integrand(s, orders), r0, k, r_end,
            rel_tol=quad.rel_tol, abs_tol=quad.abs_tol)
        t = res.values + tail
        t[:, 0] = -t[:, 0]
        t[:, 1::2] = -t[:, 1::2]
        diag = {"r_handover": k * self.step, "los_tail_error": los_err,
                "r_linear": r_end, "linear_slack": slack,
                "num_panels": res.num_panels, "num_evals": res.num_evals,
                "quad_errors": res.errors + tail_err}
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
    return scn.tx_power * antenna_gain_curve(
        r0, scn.bs_height, scn.ue_height, scn.pattern) * path_gain_curve(
        r0, los, scn.bs_height, scn.ue_height, scn.channel)


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
    """Mean aggregate interference power given serving distance ``r0``:
    linear in the path gain, so exactly each state's share of
    :func:`los_tail_sums` beyond the first handover candidate past ``r0``,
    with the quadrature tolerance relative to that tail, since the moment
    is of order 1e-9, far below ``abs_tol``."""
    if r0 < 0.0:
        raise DomainError("serving distance must be non-negative")
    fld, ch = _field_for(scn, quad or QuadratureSpec()), scn.channel
    g_far, r_gain = fld.far_gain
    powers = (ch.alpha_los, ch.alpha_nlos)
    ks = fld.los_tails(powers, max(r0, r_gain))[0]
    past = np.searchsorted(ks * fld.step, r0, side="right")
    if past == ks.size:
        raise QuadratureError("no line-of-sight handover candidate past the "
                              "serving distance below the step-table cap",
                              {"r0": r0})
    k = ks[past]
    sight, blocked, _ = los_tail_sums(scn.env, scn.bs_height, scn.ue_height,
                                      powers, [k * fld.step])
    tail = float(fld.area * scn.tx_power * g_far * (
        ch.intercept_los * sight[0, 0] + ch.intercept_nlos * blocked[1, 0]))
    res = fld.integrate_rows(
        lambda data, owner, weighted: (data[0 if weighted else 1]
                                       * data[2])[None],
        np.array([float(r0)]), np.array([k]), np.array([k * fld.step]),
        rel_tol=fld.quad.rel_tol, abs_tol=fld.quad.rel_tol * tail)
    return float(res.values[0, 0] + tail)


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


def coverage_probability(scn: NetworkScenario,
                         quad: QuadratureSpec | None = None) -> CoverageResult:
    """Coverage probability averaged over serving distance, serving link
    state and fading, with integer Nakagami orders per link state.

    Each call of the outer integrand evaluates the inner transforms of all
    its serving distances as one batch per serving-link state.  Terms that
    :meth:`_Field.coverage_negligible` certifies are skipped; each is at
    most half of ``abs_tol`` times the serving-distance density, so both
    states together lose at most ``abs_tol`` over the integral, which is
    added to the error estimate once.
    """
    quad = quad or QuadratureSpec()
    ch = scn.channel
    _require_order(max(ch.m_los, ch.m_nlos))
    fld = _field_for(scn, quad)
    thr = scn.sir_threshold
    skipped = inner_evals = inner_panels = 0

    def integrand(data, owner, weighted) -> np.ndarray:
        # Density times conditional coverage at the panel nodes.
        nonlocal skipped, inner_evals, inner_panels
        r0 = data[0].ravel()
        p_los = fld.level_at(r0)
        total = np.zeros(r0.size)
        for los, m, weight in ((True, ch.m_los, p_los),
                               (False, ch.m_nlos, 1.0 - p_los)):
            go = np.flatnonzero(weight != 0.0)
            if not go.size:
                continue
            s = m * thr / _serving_coeff(scn, r0[go], los)
            low, floor = fld.coverage_negligible(r0[go], s, m, weight[go])
            skipped += int(low.sum())
            go, s = go[~low], s[~low]
            if not go.size:
                continue
            t, info = fld.eta_scaled(r0[go], s, m - 1, floor[~low])
            inner_evals += int(info["num_evals"].sum())
            inner_panels += int(info["num_panels"].sum())
            total[go] += weight[go] * _coverage_sum(t, m)
        return (serving_distance_pdf(r0, scn.bs_density)
                * total).reshape(data.shape)

    edges = build_edges(0.0, fld.r_outer, [
        *los_breakpoints(scn.env, fld.r_outer), *fld.switches])
    res = integrate_steps(integrand, kronrod_panels(edges[:-1], edges[1:]),
                          kronrod_panels, rel_tol=quad.rel_tol,
                          abs_tol=quad.abs_tol)[0]
    prob = float(min(max(res.value, 0.0), 1.0))
    err = res.error + quad.outer_trunc_prob + 8.0 * quad.abs_tol \
        + 4.0 * quad.rel_tol * max(prob, 1e-3)
    if skipped:
        err += quad.abs_tol
    return CoverageResult(prob, err, {
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
        "fading_orders": (ch.m_los, ch.m_nlos),
    })
