"""Empirical coverage estimation by direct simulation of the network.

Base stations are drawn as a Poisson field on a disk centered under the
user, each with an independently sampled propagation state and fading
gain; coverage is the fraction of realizations whose SIR clears the
threshold.  This path shares only the physical layer with the analytic
evaluation and serves as its independent cross-check.

The interference from outside the sampling disk is not negligible here:
the line-of-sight component decays so slowly that a disk small enough to
simulate quickly would bias coverage upward by far more than the Monte
Carlo noise.  Instead of growing the disk, every drop adds the exact mean
of the out-of-disk interference, both states' shares from
:func:`channel.los_tail_sums`, as a deterministic offset.  What that
replacement ignores is the fluctuation of the far field.  The far field
is independent of the near field and the offset is its mean, so the
first-order effect of a fluctuation cancels over the drops: drops pushed
across the threshold one way are balanced by drops pushed the other, and
the estimate is biased only to second order in the far field's standard
deviation.  The automatic disk is therefore the smallest, doubling from
the radius that holds the nearest station but for a 1e-8 chance, whose
far-field standard deviation is at most ``_RIPPLE_TARGET`` of the
interference of the least interfered drops: the 10th percentile over a
fixed-seed pilot, which makes the radius a function of the scenario
alone.  That ratio is reported as ``far_ripple`` in the diagnostics, the
pilot's percentile as ``ripple_scale``.

Drops are evaluated in blocks of consecutive indices, cut at multiples
of the block size, and each block draws from its own random substream
keyed by (seed, block index), with one draw call per kind of variate for
the whole block, which keeps the fixed cost of building generators and
calling them off each drop.  The block size is ``_BLOCK`` drops, halved
while the disk's expected stations per block exceed ``_BLOCK_STATIONS``,
so it is a function of the scenario and the disk alone, and the stream
is defined per block: changing either constant changes seeded results.
Worker chunks are whole blocks and the estimate is reduced by integer
counts, so results are bit-identical for any worker count.  The array
work (line-of-sight states, path and antenna gains, serving station,
interference) runs once over the block's concatenated stations, through
segment reductions that never mix drops.  Its block-sized intermediates
live in per-estimate buffers, because fresh block-sized temporaries cost
about a fifth of the time.
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
    path_gain_curve,
)
from .errors import DomainError

__all__ = [
    "SimulationSpec",
    "NetworkRealization",
    "CoverageEstimate",
    "default_disk_radius",
    "sample_network",
    "compute_sir",
    "estimate_coverage",
    "laplace_empirical",
]

_SERVING_TRUNC = 1e-8     # nearest-station mass ignored by the radius floor
# Allowed far-field standard deviation over the pilot's 10th-percentile
# interference.  A low percentile, not the mean, because interference is
# skewed (at 1.5 m the mean is hundreds of times the 10th percentile).
# The target bounds the estimate's bias, which is second order in the far
# field's spread; the share of drops a fluctuation flips is first order
# but cancels between the two directions (685 m flips about 0.4 % of
# coupled drops at 60 m against a 3,424 m disk, within paired noise).
# Bias at the defaults, 4e6 drops against the analytic route:
#
#     user    disk      ripple   z
#     60 m    342 m     0.051    -1.48
#     60 m    685 m     0.022    -0.34
#     60 m    1,370 m   0.009    -0.98
#     1.5 m   342 m     0.165    -8.07
#     1.5 m   685 m     0.004    +1.33
#
# 2.5e-2 picks 685 m at 1.5, 60 and 150 m; 5e-3 picked 2,740 m from 30 m
# up, with 16 times the stations per drop.
_RIPPLE_TARGET = 2.5e-2
_PILOT_DROPS = 256        # drops of the pilot that sets the ripple scale
_PILOT_SEED = 0           # the pilot's seed, fixed so the radius is not random
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

    num_drops: int = 20000
    disk_radius: float | None = None
    seed: int = 0
    fixed_serving_distance: float | None = None
    force_serving_los: bool | None = None

    def __post_init__(self) -> None:
        if self.num_drops < 1:
            raise DomainError(f"num_drops must be at least 1, got {self.num_drops}")
        if self.disk_radius is not None and self.disk_radius <= 0.0:
            raise DomainError("disk_radius must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
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
    # (n,) ground distances as drawn, which np.hypot of the positions
    # misses by an ulp for some angles; None for a field built by hand.
    radii: np.ndarray | None = None


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
    annulus between gain switches, the line-of-sight and blocked shares
    of each power law from :func:`los_tail_sums` beyond its lower cut but
    not beyond the next."""
    ch = scn.channel
    if min(ch.alpha_los, ch.alpha_nlos) <= 2.0:
        raise DomainError("path-loss exponents must exceed 2 for a finite "
                          "far-field interference mean")
    cuts = np.array(sorted([float(radius)] + [
        x for x in gain_switch_radii(scn.bs_height, scn.ue_height, scn.pattern)
        if x > radius]))
    # Rows: line-of-sight mean and variance, then blocked mean and variance.
    p = np.array([ch.alpha_los, 2.0 * ch.alpha_los, ch.alpha_nlos,
                  2.0 * ch.alpha_nlos])
    sight, blocked, _ = los_tail_sums(scn.env, scn.bs_height, scn.ue_height,
                                      p, cuts)
    sight[:, :-1] -= sight[:, 1:].copy()
    blocked[:, :-1] -= blocked[:, 1:].copy()
    mean = ch.intercept_los * sight[0] + ch.intercept_nlos * blocked[2]
    var = (ch.intercept_los ** 2 * (ch.m_los + 1.0) / ch.m_los * sight[1]
           + ch.intercept_nlos ** 2 * (ch.m_nlos + 1.0) / ch.m_nlos
           * blocked[3])
    probe = np.append(0.5 * (cuts[:-1] + cuts[1:]), 2.0 * cuts[-1] + 1.0)
    gain = antenna_gain_curve(probe, scn.bs_height, scn.ue_height,
                              scn.pattern)
    scale = 2.0 * math.pi * scn.bs_density * scn.tx_power
    return (scale * float(np.dot(gain, mean)),
            scale * scn.tx_power * float(np.dot(gain * gain, var)))


@lru_cache(maxsize=64)
def _disk_profile(scn) -> tuple[float, float]:
    """Automatic sampling radius and the interference scale it is judged
    by, both of the scenario alone.

    The scale is the 10th percentile of the interference over a
    fixed-seed pilot on the serving-truncation floor's disk, far-field
    mean included.  The radius doubles from that floor, up to the
    station-count cap, until the replaced far field's standard deviation
    is at most ``_RIPPLE_TARGET`` of the scale.
    """
    lam = scn.bs_density
    radius = math.sqrt(math.log(1.0 / _SERVING_TRUNC) / (math.pi * lam))
    cap_r = math.sqrt(_MAX_MEAN_COUNT / (lam * math.pi))
    # The pilot's drops are drawn as an estimate draws its blocks.
    pilot = SimulationSpec(_PILOT_DROPS, disk_radius=radius, seed=_PILOT_SEED)
    far = _far_field_moments(scn, radius)[0]
    interference = np.concatenate([
        _link_sums(scn, blk)[1] + far
        for blk in _blocks(scn, pilot, 0, _PILOT_DROPS)])
    k = _PILOT_DROPS // 10
    scale = float(np.partition(interference, k)[k])
    while (radius < cap_r and math.sqrt(_far_field_moments(scn, radius)[1])
           > _RIPPLE_TARGET * scale):
        radius = min(2.0 * radius, cap_r)
    return radius, scale


def default_disk_radius(scn) -> float:
    """Sampling radius at which replacing the far field by its mean
    biases the estimate negligibly: its fluctuation is a small share of
    the interference of the weaker-interfered drops."""
    return _disk_profile(scn)[0]


def _with_radius(scn, spec: SimulationSpec) -> SimulationSpec:
    # The spec with the automatic sampling radius resolved, doubled past
    # a pinned serving distance so that the disk still holds the station.
    if spec.disk_radius is not None:
        return spec
    radius = default_disk_radius(scn)
    while (spec.fixed_serving_distance is not None
           and spec.fixed_serving_distance >= radius):
        radius *= 2.0
    return replace(spec, disk_radius=radius)


# ------------------------------------------------------------------ sampling

# Drops per block, and so per generator, at most: part of the stream
# contract, so changing it changes seeded results.  On the automatic disks
# (tens to a few hundred stations per drop) a block of 32 drops spreads
# the fixed cost of a generator and of each NumPy call over enough
# stations to matter.  Its arrays grow with the disk, about 2 MiB of peak
# memory per 1,000 stations per drop at 32 drops, so a block is halved
# while its expected stations exceed _BLOCK_STATIONS: every automatic disk
# at the defaults keeps 32 drops, and a set 5,000 m disk at 50 stations
# per km^2 (3,927 per drop) gets 16.
_BLOCK = 32
_BLOCK_STATIONS = 65536


def _drops_per_block(scn, radius: float) -> int:
    per_drop = scn.bs_density * math.pi * radius * radius
    block = _BLOCK
    while block > 1 and block * per_drop > _BLOCK_STATIONS:
        block //= 2
    return block


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(block_index,))
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
    """Stations of consecutive drops, concatenated in drop order, and the
    buffers that their arrays view and that their SIR pass writes into."""

    radii: np.ndarray     # ground distances
    los: np.ndarray
    fading: np.ndarray
    starts: np.ndarray    # index of each drop's first station
    counts: np.ndarray    # stations per drop
    serving: np.ndarray   # index of each drop's serving station
    resampled: int        # empty fields discarded over the block
    bufs: _Buffers


def _segment_argmin(values: np.ndarray, starts: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
    # First minimum of each segment, which is argmin's tie rule.
    low = np.minimum.reduceat(values, starts)
    hits = np.flatnonzero(values == np.repeat(low, counts))
    return hits[np.searchsorted(hits, starts)]


def _sampler(scn, spec: SimulationSpec):
    """``draw(rng, drops) -> _Block`` for one estimate.

    A block's generator makes one call per kind of draw, in a fixed
    order: Poisson counts for all its drops (empty fields redrawn
    together until none is left), radius uniforms, line-of-sight
    uniforms, then gamma fading for the line-of-sight and then for the
    blocked stations, each over the block's concatenated stations in
    drop order.  The disk radius and the line-of-sight table are the
    same for every drop, so they are resolved once here rather than per
    block, and so are the arrays every block writes into.
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

    def draw(rng: np.random.Generator, drops: int) -> _Block:
        n = rng.poisson(mean, drops)   # radius uniforms per drop
        resampled = 0
        while r0 is None and not n.all():
            empty = np.flatnonzero(n == 0)
            resampled += empty.size
            n[empty] = rng.poisson(mean, empty.size)
        counts = n + 1 if r0 is not None else n
        ends = np.cumsum(counts)
        starts = ends - counts
        u = rng.random(out=bufs.take("u", int(n.sum())))
        los_u = rng.random(out=bufs.take("los_u", ends[-1]))
        if r0 is not None:
            u *= radius * radius - r0 * r0
            u += r0 * r0
            np.sqrt(u, out=u)
            # Each drop's pinned serving station leads its segment.
            radii = bufs.take("radii", ends[-1])
            radii[starts] = r0
            a = 0
            for nj, lo in zip(n.tolist(), starts.tolist()):
                radii[lo + 1:lo + 1 + nj] = u[a:a + nj]
                a += nj
            serving = starts
        else:
            radii = np.sqrt(u, out=u)
            radii *= radius
            serving = _segment_argmin(radii, starts, counts)
        level = los_level_curve(radii, levels, step, out=(
            bufs.take("work", radii.size),
            bufs.take("index", radii.size, np.intp)))
        los = np.less(los_u, level, out=bufs.take("los", radii.size, bool))
        if force is not None:
            los[serving] = force
        # gamma(m, 1/m) is 1/m times standard_gamma(m), bit for bit.
        fading = bufs.take("fading", radii.size)
        for key, idx, m in (("fade_los", np.flatnonzero(los), ch.m_los),
                            ("fade_nlos", np.flatnonzero(~los), ch.m_nlos)):
            fade = rng.standard_gamma(m, out=bufs.take(key, idx.size))
            fade *= 1.0 / m
            fading[idx] = fade
        return _Block(radii, los, fading, starts, counts, serving, resampled,
                      bufs)

    return draw


def _blocks(scn, spec: SimulationSpec, lo: int, hi: int):
    """Blocks of ``_drops_per_block`` drops over drops ``lo..hi-1`` of an
    estimate whose spec has its radius resolved, each drawn from the
    generator of its block index.  ``lo`` must be a multiple of the block
    size and ``hi`` one too or the estimate's last drop, so that every
    block is whole whatever the worker split."""
    draw = _sampler(scn, spec)
    block = _drops_per_block(scn, spec.disk_radius)
    for a in range(lo, hi, block):
        yield draw(_block_rng(spec.seed, a // block), min(block, hi - a))


def _chunk_bounds(n: int, workers: int, block: int) -> list[int]:
    # Worker chunk edges over n drops, at multiples of the block size (bar
    # the last, n) so that no block is split between workers.
    blocks = -(-n // block)
    edges = np.linspace(0, blocks, workers + 1).astype(int) * block
    return np.unique(np.minimum(edges, n)).tolist()


def sample_network(scn, spec: SimulationSpec,
                   rng: np.random.Generator) -> NetworkRealization:
    """Draw one field of stations with propagation states and fading.

    The radii, states and fades are those of a one-drop block drawn from
    ``rng``; angle uniforms for the positions are drawn after them.
    """
    blk = _sampler(scn, spec)(rng, 1)
    angles = 2.0 * math.pi * rng.random(blk.radii.size)
    positions = np.column_stack((blk.radii * np.cos(angles),
                                 blk.radii * np.sin(angles)))
    return NetworkRealization(positions, blk.los, blk.fading, blk.resampled,
                              blk.radii)


def _link_sums(scn, blk: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Serving power and summed power of every other station, per drop
    of a block, the per-station power written into the block's buffers.
    The serving entry is zeroed before the sum rather than subtracted
    after it, so a strong signal costs the interference no digits."""
    n, bufs = blk.radii.size, blk.bufs
    power = path_gain_curve(blk.radii, blk.los, scn.bs_height, scn.ue_height,
                            scn.channel, out=(bufs.take("power", n),
                                              bufs.take("work", n),
                                              bufs.take("index", n, np.intp)))
    power *= antenna_gain_curve(blk.radii, scn.bs_height, scn.ue_height,
                                scn.pattern)
    power *= scn.tx_power
    power *= blk.fading
    signal = power[blk.serving]
    power[blk.serving] = 0.0
    return signal, np.add.reduceat(power, blk.starts)


def _block_sir(scn, blk: _Block, far_mean: float) -> np.ndarray:
    signal, others = _link_sums(scn, blk)
    interference = others + far_mean
    return np.divide(signal, interference, out=np.full(signal.size, np.inf),
                     where=interference > 0.0)


def compute_sir(real: NetworkRealization, scn, far_mean: float = 0.0) -> float:
    """SIR at the user: the nearest station serves, every other station
    plus the deterministic far-field offset interferes.  The distances
    are the drawn radii when the realization keeps them."""
    radii = real.radii
    if radii is None:
        radii = np.hypot(real.positions[:, 0], real.positions[:, 1])
    if radii.size == 0:
        raise DomainError("realization holds no stations")
    blk = _Block(radii, real.los, real.fading, starts=np.zeros(1, np.intp),
                 counts=np.array([radii.size]),
                 serving=np.array([np.argmin(radii)]),
                 resampled=real.resampled, bufs=_Buffers())
    return float(_block_sir(scn, blk, far_mean)[0])


# ---------------------------------------------------------------- estimation


def _chunk_counts(scn, spec: SimulationSpec, lo: int, hi: int,
                  far_mean: float) -> np.ndarray:
    # Covered drops, resampled drops, single-station drops and stations.
    counts = np.zeros(4, dtype=np.int64)
    thr = scn.sir_threshold
    for blk in _blocks(scn, spec, lo, hi):
        counts += (np.count_nonzero(_block_sir(scn, blk, far_mean) > thr),
                   blk.resampled, np.count_nonzero(blk.counts == 1),
                   blk.counts.sum())
        del blk   # freed before the next block is drawn, not after
    return counts


def estimate_coverage(scn, spec: SimulationSpec,
                      workers: int = 1) -> CoverageEstimate:
    """Fraction of independent drops whose SIR exceeds the threshold.

    Deterministic for a fixed seed regardless of ``workers``: blocks of
    drops use per-index substreams, no block is split between workers,
    and the reduction sums integer counts.
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
        bounds = _chunk_bounds(n, workers, _drops_per_block(scn, radius))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_chunk_counts, scn, spec, a, b, far_mean)
                    for a, b in zip(bounds[:-1], bounds[1:])]
            counts = sum(fut.result() for fut in futs)
    covered, resampled, single, stations = (int(c) for c in counts)
    prob = covered / n
    std_err = math.sqrt(prob * (1.0 - prob) / n)
    scale = _disk_profile(scn)[1]
    diag = {
        "disk_radius": radius,
        "mean_station_count": scn.bs_density * math.pi * radius * radius,
        "far_mean": far_mean,
        "far_ripple": math.sqrt(far_var) / scale if scale > 0.0 else 0.0,
        "ripple_scale": scale,
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
    for blk in _blocks(scn, spec, 0, spec.num_drops):
        _, others = _link_sums(scn, blk)
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
