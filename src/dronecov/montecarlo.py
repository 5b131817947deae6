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
calling them off each drop.  A block is the largest power of two of
drops whose expected station count fits ``_BLOCK_STATIONS``: enough
stations to spread that fixed cost, few enough for the block's arrays to
stay in cache.  So the block size is a function of the scenario and the
disk alone, and the stream is defined per block: changing the constant
changes seeded results.  Worker chunks are whole blocks and the
estimate is reduced by integer counts, so results are bit-identical for
any worker count.  Each drop's serving station is drawn first and
leads its segment; the array work (line-of-sight states, path and
antenna gains, interference) runs once over the block's concatenated
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
    los_tail_sums,
    path_gain_curve,
)
from .errors import DomainError, require_positive

__all__ = [
    "SimulationSpec",
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
#     60 m    685 m     0.022    +0.50
#     60 m    1,370 m   0.009    -0.98
#     1.5 m   342 m     0.165    -8.07
#     1.5 m   685 m     0.005    -0.91
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
        for name in ("disk_radius", "fixed_serving_distance"):
            if getattr(self, name) is not None:
                require_positive(self, name)
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")


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

# Expected stations per block, the one constant of the block rule and so
# part of the stream contract: changing it changes seeded results.  A
# block pays a fixed cost (a generator, five draw calls and about thirty
# NumPy calls) and its arrays peak at about 41 bytes per station; 16,384
# stations (about 0.64 MiB) amortise that cost and keep the block's arrays
# in cache: the automatic 685 m disk (74 stations per drop) gets 128-drop
# blocks, which ran mc-drops about a quarter faster than 32-drop ones,
# while 512-drop blocks ran slower than 128 and added RSS.  A set 2,740 m
# disk gets 8 drops (about a tenth slower there than 32), a set 10 km
# disk 1, and a set 50 m disk 32,768.
_BLOCK_STATIONS = 16384


def _drops_per_block(scn, radius: float) -> int:
    # The largest power of two of drops whose expected stations fit.
    per_drop = scn.bs_density * math.pi * radius * radius
    block = 1
    while 2 * block * per_drop <= _BLOCK_STATIONS:
        block *= 2
    return block


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass
class _Block:
    """Stations of consecutive drops, concatenated in drop order, each
    drop's serving station first."""

    radii: np.ndarray     # ground distances
    los: np.ndarray
    fading: np.ndarray
    starts: np.ndarray    # index of each drop's first, serving station
    counts: np.ndarray    # stations per drop


def _sampler(scn, spec: SimulationSpec):
    """``draw(rng, drops) -> _Block`` for one estimate.

    The serving station is drawn first.  Its squared distance comes from
    the nearest-station law on a disk that holds a station, or is the
    pinned distance squared; the other stations form a Poisson field on
    the annulus beyond it, which is the conditional law of a Poisson
    field seen from its nearest point.  A block's generator makes one
    call per kind of draw, in a fixed order: serving uniforms for all
    its drops (none when the distance is pinned), Poisson counts of the
    annulus stations, one radius uniform per station, the serving
    station's slot included, line-of-sight uniforms, then gamma fading
    for the line-of-sight and then for the blocked stations, each over
    the block's concatenated stations in drop order.  Each drop's
    serving slot is then overwritten with its serving distance.  The
    disk radius is the same for every drop, so it is resolved once here
    rather than per block; each block reads its stations' line-of-sight
    levels from :func:`channel.los_level_curve`.
    """
    radius = _with_radius(scn, spec).disk_radius
    area = radius * radius
    per_area = scn.bs_density * math.pi
    hold = -math.expm1(-per_area * area)   # chance the disk holds a station
    r0 = spec.fixed_serving_distance
    if r0 is not None and r0 >= radius:
        raise DomainError("fixed_serving_distance must lie inside "
                          "the sampling disk")
    ch = scn.channel
    force = spec.force_serving_los

    def draw(rng: np.random.Generator, drops: int) -> _Block:
        if r0 is None:
            near = -np.log1p(-hold * rng.random(drops)) / per_area
            np.minimum(near, area, out=near)
        else:
            near = np.full(drops, r0 * r0)
        width = area - near   # the annulus, in squared distance
        counts = rng.poisson(per_area * width) + 1
        ends = np.cumsum(counts)
        starts = ends - counts
        # area - (1 - u) * width, in place: u - 1 is -(1 - u) exactly.
        radii = rng.random(int(ends[-1]))
        radii -= 1.0
        radii *= np.repeat(width, counts)
        radii += area
        radii[starts] = near
        np.sqrt(radii, out=radii)
        los = rng.random(radii.size) < los_level_curve(
            radii, scn.bs_height, scn.ue_height, scn.env)
        if force is not None:
            los[starts] = force
        # gamma(m, 1/m) is 1/m times standard_gamma(m), bit for bit.
        fading = np.empty(radii.size)
        for idx, m in ((np.flatnonzero(los), ch.m_los),
                       (np.flatnonzero(~los), ch.m_nlos)):
            fading[idx] = rng.standard_gamma(m, idx.size) * (1.0 / m)
        return _Block(radii, los, fading, starts, counts)

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
                   rng: np.random.Generator) -> _Block:
    """Draw one drop's field, as a one-drop block from ``rng``: its
    stations' ground distances, serving station first, with their
    propagation states and fades."""
    return _sampler(scn, spec)(rng, 1)


def _link_sums(scn, blk: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Serving power and summed power of every other station, per drop
    of a block.  The serving entry is zeroed before the sum rather than
    subtracted after it, so a strong signal costs the interference no
    digits."""
    power = path_gain_curve(blk.radii, blk.los, scn.bs_height, scn.ue_height,
                            scn.channel)
    power *= antenna_gain_curve(blk.radii, scn.bs_height, scn.ue_height,
                                scn.pattern)
    power *= scn.tx_power
    power *= blk.fading
    signal = power[blk.starts]
    power[blk.starts] = 0.0
    return signal, np.add.reduceat(power, blk.starts)


def compute_sir(scn, blk: _Block, far_mean: float = 0.0) -> np.ndarray:
    """SIR of each drop of a block: the drop's first station serves, every
    other station plus the deterministic far-field offset interferes.  A
    block built by hand must lead each drop with its serving station."""
    signal, others = _link_sums(scn, blk)
    interference = others + far_mean
    return np.divide(signal, interference, out=np.full(signal.size, np.inf),
                     where=interference > 0.0)


# ---------------------------------------------------------------- estimation


def _chunk_counts(scn, spec: SimulationSpec, lo: int, hi: int,
                  far_mean: float) -> np.ndarray:
    # Covered drops, single-station drops and stations.
    counts = np.zeros(3, dtype=np.int64)
    thr = scn.sir_threshold
    for blk in _blocks(scn, spec, lo, hi):
        counts += (np.count_nonzero(compute_sir(scn, blk, far_mean) > thr),
                   np.count_nonzero(blk.counts == 1),
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
    covered, single, stations = (int(c) for c in counts)
    prob = covered / n
    std_err = math.sqrt(prob * (1.0 - prob) / n)
    scale = _disk_profile(scn)[1]
    diag = {
        "disk_radius": radius,
        "mean_station_count": scn.bs_density * math.pi * radius * radius,
        "far_mean": far_mean,
        "far_ripple": math.sqrt(far_var) / scale if scale > 0.0 else 0.0,
        "ripple_scale": scale,
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
