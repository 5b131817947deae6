"""Empirical coverage estimation by direct simulation of the network.

Base stations are drawn as a Poisson field on a disk centered under the
user, each with an independently sampled propagation state and fading
gain; coverage is the fraction of realizations whose SIR clears the
threshold.  This path shares only the physical layer with the analytic
evaluation and serves as its independent cross-check.

The interference from outside the sampling disk is not negligible here:
the line-of-sight component decays so slowly that a disk small enough to
simulate quickly would bias coverage upward by far more than the Monte
Carlo noise.  Instead of growing the disk, every drop adds the exact
mean of the out-of-disk interference, from :func:`channel.los_tail_sums`
for every geometry, as a deterministic offset.  What
that replacement ignores is only the fluctuation of a sum of thousands
of individually tiny far-field terms; its standard deviation divided by
the typical total interference is reported as ``far_ripple`` in the
diagnostics, and the induced coverage error is of that ratio squared.

Every drop draws from its own random substream keyed by (seed, drop
index), and the estimate is reduced by integer counts, so results are
bit-identical for any worker count.  Drops are evaluated in small blocks
of consecutive indices, cut at fixed multiples so that no block edge
depends on the worker split.  Within a block each drop still consumes
its own substream in the order ``sample_network`` uses; only the array
work between the draws (line-of-sight states, path and antenna gains,
serving station, interference) runs once over the block's concatenated
stations, through segment reductions that never mix drops.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .channel import (
    antenna_gain_curve,
    gain_switch_radii,
    los_level_curve,
    los_step_levels,
    los_step_width,
    los_tail_sums,
    main_lobe_interval,
    path_loss_curves,
    power_law_integral,
)
from .errors import DomainError

__all__ = [
    "SimulationSpec",
    "NetworkRealization",
    "CoverageEstimate",
    "default_disk_radius",
    "far_field_mean",
    "sample_network",
    "compute_sir",
    "estimate_coverage",
    "laplace_empirical",
]

_SERVING_TRUNC = 1e-8     # nearest-station mass ignored by the radius floor
_RIPPLE_TARGET = 1e-2     # allowed far-field spread over the reference mean
_MAX_MEAN_COUNT = 6e4     # cost ceiling on the expected stations per drop


@dataclass(frozen=True)
class SimulationSpec:
    """Drop count, sampling region and optional conditioning.

    ``disk_radius`` of ``None`` selects the automatic radius.  Setting
    ``fixed_serving_distance`` pins the nearest station at exactly that
    ground distance; the rest of the field is drawn on the annulus
    beyond it, which is the correct conditional law of a Poisson field.
    ``force_serving_los`` overrides the serving link's propagation state.
    """

    num_drops: int
    disk_radius: float | None = None
    seed: int = 0
    fixed_serving_distance: float | None = None
    force_serving_los: bool | None = None

    def __post_init__(self) -> None:
        if self.num_drops < 1:
            raise DomainError(f"num_drops must be at least 1, got {self.num_drops}")
        if self.disk_radius is not None and self.disk_radius <= 0.0:
            raise DomainError("disk_radius must be positive")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if (self.fixed_serving_distance is not None
                and self.fixed_serving_distance <= 0.0):
            raise DomainError("fixed_serving_distance must be positive")


@dataclass
class NetworkRealization:
    """One sampled field: station positions, propagation states, fading.

    ``resampled`` counts empty fields discarded before this one.
    """

    positions: np.ndarray   # (n, 2) ground coordinates, user at origin
    los: np.ndarray         # (n,) bool
    fading: np.ndarray      # (n,) unit-mean power gains
    resampled: int = 0


@dataclass
class CoverageEstimate:
    probability: float
    std_error: float
    num_drops: int
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------- far field


@lru_cache(maxsize=64)
def _far_field_moments(scn, radius: float) -> tuple[float, float]:
    """Exact mean and variance of the aggregate interference received from
    every station beyond ``radius``, fading and states averaged out: per
    annulus between gain switches, the line-of-sight share of each power
    law is the partial step up to a breakpoint plus :func:`los_tail_sums`
    from there, and the blocked share the rest of its closed form."""
    ch = scn.channel
    if min(ch.alpha_los, ch.alpha_nlos) <= 2.0:
        raise DomainError("path-loss exponents must exceed 2 for a finite "
                          "far-field interference mean")
    gap2 = (scn.bs_height - scn.ue_height) ** 2
    step = los_step_width(scn.env)
    lobe = main_lobe_interval(scn.bs_height, scn.ue_height, scn.pattern)
    cuts = np.array(sorted([float(radius)] + [
        x for x in gain_switch_radii(scn.bs_height, scn.ue_height, scn.pattern)
        if x > radius]))
    # Rows: line-of-sight mean and variance, then blocked mean and variance.
    p = np.array([ch.alpha_los, 2.0 * ch.alpha_los, ch.alpha_nlos,
                  2.0 * ch.alpha_nlos])
    ks, u = (cuts / step).astype(np.int64) + 1, cuts * cuts + gap2
    sight = los_step_levels(scn.env, scn.bs_height, scn.ue_height, int(
        ks.max()))[ks - 1] * power_law_integral(
        u, (ks * step - cuts) * (ks * step + cuts), p[:, None]) \
        + los_tail_sums(scn.env, scn.bs_height, scn.ue_height, p, ks)[0]
    whole = power_law_integral(u, np.inf, p[:, None])
    # Each annulus is what lies beyond its lower cut but not the next.
    sight[:, :-1] -= sight[:, 1:].copy()
    whole[:, :-1] -= whole[:, 1:].copy()
    blocked = whole - sight
    mean = ch.intercept_los * sight[0] + ch.intercept_nlos * blocked[2]
    var = (ch.intercept_los ** 2 * (ch.m_los + 1.0) / ch.m_los * sight[1]
           + ch.intercept_nlos ** 2 * (ch.m_nlos + 1.0) / ch.m_nlos
           * blocked[3])
    probe = np.append(0.5 * (cuts[:-1] + cuts[1:]), 2.0 * cuts[-1] + step)
    gain = antenna_gain_curve(probe, lobe, scn.pattern)
    scale = 2.0 * math.pi * scn.bs_density * scn.tx_power
    return (scale * float(np.dot(gain, mean)),
            scale * scn.tx_power * float(np.dot(gain * gain, var)))


def far_field_mean(scn, radius: float) -> float:
    """Mean interference received from beyond ``radius``; the offset the
    estimator adds to every drop's simulated interference."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    return _far_field_moments(scn, float(radius))[0]


@lru_cache(maxsize=64)
def _disk_profile(scn) -> tuple[float, float]:
    lam = scn.bs_density
    floor_r = 10.0 * math.sqrt(math.log(1.0 / _SERVING_TRUNC)
                               / (math.pi * lam))
    cap_r = math.sqrt(_MAX_MEAN_COUNT / (lam * math.pi))
    r_med = math.sqrt(math.log(2.0) / (math.pi * lam))
    mean_ref = _far_field_moments(scn, r_med)[0]
    radius = min(floor_r, cap_r)
    while radius < cap_r:
        if math.sqrt(_far_field_moments(scn, radius)[1]) \
                <= _RIPPLE_TARGET * mean_ref:
            break
        radius = min(2.0 * radius, cap_r)
    ripple = math.sqrt(_far_field_moments(scn, radius)[1]) / mean_ref \
        if mean_ref > 0.0 else 0.0
    return radius, ripple


def default_disk_radius(scn) -> float:
    """Sampling radius at which the replaced far field's fluctuation is
    far below the interference a median-distance user sees."""
    return _disk_profile(scn)[0]


def _with_radius(scn, spec: SimulationSpec) -> SimulationSpec:
    # The spec with the automatic sampling radius resolved.
    if spec.disk_radius is not None:
        return spec
    return replace(spec, disk_radius=default_disk_radius(scn))


# ------------------------------------------------------------------ sampling

_BLOCK = 8   # drops per evaluation block; larger ones add memory, not speed


def _drop_rng(seed: int, drop_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(drop_index,))
    return np.random.Generator(np.random.PCG64(seq))


class _Buffers:
    """Per-estimate arrays reused by every block, grown with headroom when
    a block needs more; a block's arrays are views valid until the next
    block is drawn."""

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, size: int, dtype=float) -> np.ndarray:
        buf = self._arrays.get(name)
        if buf is None or buf.size < size:
            buf = self._arrays[name] = np.empty(size + size // 4 + 64, dtype)
        return buf[:size]


@dataclass
class _Block:
    """Stations of consecutive drops, concatenated in drop order."""

    radii: np.ndarray     # ground distances
    los: np.ndarray
    fading: np.ndarray
    starts: np.ndarray    # index of each drop's first station
    counts: np.ndarray    # stations per drop
    serving: np.ndarray   # index of each drop's serving station
    angles: np.ndarray    # angle uniforms, for positions only
    resampled: int        # empty fields discarded over the block


def _segment_argmin(values: np.ndarray, starts: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    # First minimum of each segment, which is argmin's tie rule.
    low = np.minimum.reduceat(values, starts)
    hits = np.flatnonzero(values == np.repeat(low, counts))
    return hits[np.searchsorted(hits, starts)]


def _sampler(scn, spec: SimulationSpec):
    """``draw(rngs) -> _Block``, one generator per drop, for one estimate.

    Each drop consumes its own generator in a fixed order: Poisson count,
    radius uniforms, angle uniforms, line-of-sight uniforms, then gamma
    fading for its line-of-sight and its blocked stations.  The array
    work between those draws runs once over the whole block.  The disk
    radius and the line-of-sight table are the same for every drop, so
    they are resolved once here rather than per drop, and so are the
    arrays every block writes into.
    """
    radius = _with_radius(scn, spec).disk_radius
    lam = scn.bs_density
    r0 = spec.fixed_serving_distance
    if r0 is not None and r0 >= radius:
        raise DomainError("fixed_serving_distance must lie inside "
                          "the sampling disk")
    step = los_step_width(scn.env)
    levels = los_step_levels(scn.env, scn.bs_height, scn.ue_height,
                             int(radius / step) + 1)
    ch = scn.channel
    force = spec.force_serving_los
    if r0 is not None:
        mean = lam * math.pi * (radius * radius - r0 * r0)
    else:
        mean = lam * math.pi * radius * radius
    bufs = _Buffers()

    def draw(rngs: list[np.random.Generator]) -> _Block:
        # Drops have independent generators, so each pass below may visit
        # all drops before the next starts; every generator still sees
        # its own draws in the order above.
        n = np.empty(len(rngs), dtype=np.intp)   # radius uniforms per drop
        resampled = 0
        for j, rng in enumerate(rngs):
            n[j] = rng.poisson(mean)
            while r0 is None and n[j] == 0:
                resampled += 1
                n[j] = rng.poisson(mean)
        counts = n + 1 if r0 is not None else n
        ends = np.cumsum(counts)
        starts = ends - counts
        u = bufs.take("u", int(n.sum()))
        angles = bufs.take("angles", ends[-1])
        los_u = bufs.take("los_u", ends[-1])
        a = 0
        for rng, nj, lo, hi in zip(rngs, n.tolist(), starts.tolist(),
                                   ends.tolist()):
            rng.random(out=u[a:a + nj])
            rng.random(out=angles[lo:hi])
            rng.random(out=los_u[lo:hi])
            a += nj
        if r0 is not None:
            u *= radius * radius - r0 * r0
            u += r0 * r0
            np.sqrt(u, out=u)
            radii = bufs.take("radii", ends[-1])
            a = 0
            for nj, lo in zip(n.tolist(), starts.tolist()):
                radii[lo] = r0
                radii[lo + 1:lo + 1 + nj] = u[a:a + nj]
                a += nj
            serving = starts
        else:
            radii = np.sqrt(u, out=u)
            radii *= radius
            serving = _segment_argmin(radii, starts, counts)
        los = np.less(los_u, los_level_curve(radii, levels, step),
                      out=bufs.take("los", radii.size, bool))
        if force is not None:
            los[serving] = force
        n_los = np.add.reduceat(los, starts, dtype=np.intp)
        fade_los = bufs.take("fade_los", int(n_los.sum()))
        fade_nlos = bufs.take("fade_nlos", radii.size - fade_los.size)
        a = b = 0
        for rng, kj, lj in zip(rngs, counts.tolist(), n_los.tolist()):
            rng.standard_gamma(ch.m_los, out=fade_los[a:a + lj])
            rng.standard_gamma(ch.m_nlos, out=fade_nlos[b:b + kj - lj])
            a += lj
            b += kj - lj
        # gamma(m, 1/m) is 1/m times standard_gamma(m), bit for bit.
        fade_los *= 1.0 / ch.m_los
        fade_nlos *= 1.0 / ch.m_nlos
        fading = bufs.take("fading", radii.size)
        fading[los] = fade_los
        fading[~los] = fade_nlos
        return _Block(radii, los, fading, starts, counts, serving, angles,
                      resampled)

    return draw


def _blocks(draw, seed: int, lo: int, hi: int):
    """Blocks over drops ``lo..hi-1``, cut at multiples of ``_BLOCK`` so
    that no block boundary depends on how drops are split over workers."""
    a = lo
    while a < hi:
        b = min(hi, (a // _BLOCK + 1) * _BLOCK)
        yield draw([_drop_rng(seed, i) for i in range(a, b)])
        a = b


def sample_network(scn, spec: SimulationSpec,
                   rng: np.random.Generator) -> NetworkRealization:
    """Draw one field of stations with propagation states and fading."""
    blk = _sampler(scn, spec)([rng])
    angles = 2.0 * math.pi * blk.angles
    positions = np.column_stack((blk.radii * np.cos(angles),
                                 blk.radii * np.sin(angles)))
    return NetworkRealization(positions, blk.los, blk.fading, blk.resampled)


def _link_sums(scn, radii: np.ndarray, los: np.ndarray, fading: np.ndarray,
               starts, serving) -> tuple[np.ndarray, np.ndarray]:
    """Serving power and summed power of every other station, per drop
    of a block.  The serving entry is zeroed before the sum rather than
    subtracted after it, so a strong signal costs the interference no
    digits."""
    zl, zn = path_loss_curves(radii, scn.bs_height, scn.ue_height,
                              scn.channel)
    np.copyto(zl, zn, where=~los)   # each station's own path gain
    power = antenna_gain_curve(
        radii, main_lobe_interval(scn.bs_height, scn.ue_height, scn.pattern),
        scn.pattern)
    power *= scn.tx_power
    power *= zl
    power *= fading
    signal = power[serving]
    power[serving] = 0.0
    return signal, np.add.reduceat(power, starts)


def _block_sir(scn, blk: _Block, far_mean: float) -> np.ndarray:
    signal, others = _link_sums(scn, blk.radii, blk.los, blk.fading,
                                blk.starts, blk.serving)
    interference = others + far_mean
    return np.divide(signal, interference, out=np.full(signal.size, np.inf),
                     where=interference > 0.0)


def compute_sir(real: NetworkRealization, scn, far_mean: float = 0.0) -> float:
    """SIR at the user: the nearest station serves, every other station
    plus the deterministic far-field offset interferes."""
    radii = np.hypot(real.positions[:, 0], real.positions[:, 1])
    if radii.size == 0:
        raise DomainError("realization holds no stations")
    signal, others = _link_sums(scn, radii, real.los, real.fading, [0],
                                [int(np.argmin(radii))])
    interference = float(others[0]) + far_mean
    if interference <= 0.0:
        return math.inf
    return float(signal[0]) / interference


# ---------------------------------------------------------------- estimation


def _chunk_counts(scn, spec: SimulationSpec, lo: int, hi: int,
                  far_mean: float) -> np.ndarray:
    # Covered drops, resampled drops, single-station drops and stations.
    counts = np.zeros(4, dtype=np.int64)
    thr = scn.sir_threshold
    for blk in _blocks(_sampler(scn, spec), spec.seed, lo, hi):
        counts += (np.count_nonzero(_block_sir(scn, blk, far_mean) > thr),
                   blk.resampled, np.count_nonzero(blk.counts == 1),
                   blk.counts.sum())
        del blk   # freed before the next block is drawn, not after
    return counts


def estimate_coverage(scn, spec: SimulationSpec,
                      workers: int = 1) -> CoverageEstimate:
    """Fraction of independent drops whose SIR exceeds the threshold.

    Deterministic for a fixed seed regardless of ``workers``: drops use
    per-index substreams and the reduction sums integer counts.
    """
    if workers < 1:
        raise DomainError("workers must be at least 1")
    spec = _with_radius(scn, spec)
    radius = spec.disk_radius
    far_mean, far_var = _far_field_moments(scn, radius)
    n = spec.num_drops
    if workers == 1 or n < 4 * workers:
        counts = _chunk_counts(scn, spec, 0, n, far_mean)
    else:
        bounds = np.linspace(0, n, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_chunk_counts, scn, spec, int(a), int(b),
                                far_mean)
                    for a, b in zip(bounds[:-1], bounds[1:])]
            counts = sum(fut.result() for fut in futs)
    covered, resampled, single, stations = (int(c) for c in counts)
    prob = covered / n
    std_err = math.sqrt(prob * (1.0 - prob) / n)
    ref = _far_field_moments(
        scn, math.sqrt(math.log(2.0) / (math.pi * scn.bs_density)))[0]
    diag = {
        "disk_radius": radius,
        "mean_station_count": scn.bs_density * math.pi * radius * radius,
        "far_mean": far_mean,
        "far_ripple": math.sqrt(far_var) / ref if ref > 0.0 else 0.0,
        "resampled_drops": resampled,
        "single_station_drops": single,
        "drops": n,
        "stations": stations,
    }
    return CoverageEstimate(prob, std_err, n, diag)


def laplace_empirical(scn, spec: SimulationSpec, s_values) -> tuple[
        np.ndarray, np.ndarray]:
    """Sample mean and standard error of exp(-s * interference) at a fixed
    serving distance, for each transform argument in ``s_values``."""
    if spec.fixed_serving_distance is None:
        raise DomainError("laplace_empirical requires fixed_serving_distance")
    s = np.asarray(s_values, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("transform arguments must be non-negative")
    spec = _with_radius(scn, spec)
    far_mean = _far_field_moments(scn, spec.disk_radius)[0]
    total = np.zeros(s.size)
    total_sq = np.zeros(s.size)
    for blk in _blocks(_sampler(scn, spec), spec.seed, 0, spec.num_drops):
        _, others = _link_sums(scn, blk.radii, blk.los, blk.fading,
                               blk.starts, blk.serving)
        vals = np.exp(np.multiply.outer(others + far_mean, -s))
        total += vals.sum(axis=0)
        total_sq += (vals * vals).sum(axis=0)
        del blk
    n = spec.num_drops
    means = total / n
    if n > 1:
        var = np.maximum(total_sq / n - means * means, 0.0) * n / (n - 1)
        std_errs = np.sqrt(var / n)
    else:
        std_errs = np.full(s.size, np.nan)
    return means, std_errs
