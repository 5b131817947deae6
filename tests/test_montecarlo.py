"""Unit tests for the network simulator."""

from __future__ import annotations

import ast
import itertools
import math
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from dronecov.analytic import (
    NetworkScenario,
    QuadratureSpec,
    mean_interference,
)
from dronecov.channel import (
    AntennaPattern,
    ChannelParams,
    EnvironmentParams,
    los_level_curve,
)
from dronecov.config import default_scenario
from dronecov import montecarlo
from dronecov.errors import DomainError
from dronecov.montecarlo import (
    CoverageEstimate,
    SimulationSpec,
    _block_rng,
    _far_field_moments,
    compute_sir,
    default_disk_radius,
    estimate_coverage,
    laplace_empirical,
    sample_network,
)

URBAN = EnvironmentParams(built_fraction=0.3, buildings_per_km2=500.0,
                          height_scale=15.0)
CHANNEL = ChannelParams(alpha_los=2.09, alpha_nlos=3.75,
                        intercept_los=7.762471166286911e-05,
                        intercept_nlos=0.0005128613839913648,
                        m_los=3, m_nlos=1)
PATTERN = AntennaPattern(beamwidth_deg=40.0, downtilt_deg=30.0,
                         gain_main=10.0, gain_side=0.5)


def make_scenario(ue_height=60.0, tx_power=10 ** -0.6, sir_threshold=0.3,
                  channel=CHANNEL):
    return NetworkScenario(bs_density=50e-6, bs_height=30.0,
                           ue_height=ue_height, tx_power=tx_power,
                           sir_threshold=sir_threshold, channel=channel,
                           env=URBAN, pattern=PATTERN)


SCN = make_scenario()


def _one_drop(radii, los, fading) -> montecarlo._Block:
    # A one-drop block built by hand; its first station serves.
    radii = np.asarray(radii, dtype=float)
    return montecarlo._Block(radii, np.asarray(los, dtype=bool),
                             np.asarray(fading, dtype=float),
                             starts=np.zeros(1, np.intp),
                             counts=np.array([radii.size]))


# ------------------------------------------------------------------ sampling

def test_sampled_count_matches_poisson_mean():
    spec = SimulationSpec(num_drops=1, disk_radius=5000.0)
    counts = [sample_network(SCN, spec, _block_rng(100, i)).radii.size
              for i in range(400)]
    expect = 50e-6 * math.pi * 5000.0 ** 2
    # 400 realizations give a 2 percent standard error on the mean
    assert abs(np.mean(counts) / expect - 1.0) < 0.06
    assert np.std(counts) == pytest.approx(math.sqrt(expect), rel=0.2)


def test_sampled_positions_inside_disk():
    spec = SimulationSpec(num_drops=1, disk_radius=2000.0)
    real = sample_network(SCN, spec, _block_rng(0, 0))
    assert real.radii.max() <= 2000.0
    assert real.los.dtype == bool
    assert np.all(real.fading > 0.0)


def test_los_fraction_matches_probability_in_annulus():
    spec = SimulationSpec(num_drops=1, disk_radius=3000.0)
    hits = total = 0
    for i in range(60):
        real = sample_network(SCN, spec, _block_rng(200, i))
        band = (real.radii > 90.0) & (real.radii < 110.0)
        hits += int(real.los[band].sum())
        total += int(band.sum())
    p = float(los_level_curve(100.0, 30.0, 60.0, URBAN))
    se = math.sqrt(p * (1.0 - p) / total)
    assert abs(hits / total - p) <= 3.0 * se


def test_fixed_serving_distance_is_exact_minimum():
    spec = SimulationSpec(num_drops=1, disk_radius=3000.0,
                          fixed_serving_distance=150.0)
    draw = montecarlo._sampler(SCN, spec)
    for i in range(5):
        blk = draw(_block_rng(7, i), 1)
        assert blk.radii[0] == 150.0 < blk.radii[1:].min()


@pytest.mark.parametrize("disk_radius", [None, 80.0], ids=["auto", "80m"])
def test_serving_distance_follows_truncated_nearest_station_law(disk_radius):
    # Each drop's segment starts with its serving station, whose distance
    # on a disk that holds a station has the law
    # F(r) = (1 - exp(-lam pi r^2)) / (1 - exp(-lam pi R^2)).  The set
    # 80 m disk holds about one station in expectation, so there the
    # untruncated law is far off and must be rejected.
    scn = default_scenario()
    spec = montecarlo._with_radius(scn, SimulationSpec(
        num_drops=100_000, seed=1, disk_radius=disk_radius))
    per_area = scn.bs_density * math.pi
    radius = spec.disk_radius
    near = np.concatenate([
        blk.radii[blk.starts]
        for blk in montecarlo._blocks(scn, spec, 0, spec.num_drops)])
    assert near.size == spec.num_drops and near.max() <= radius

    def law(r):
        return -np.expm1(-per_area * r * r) / -math.expm1(
            -per_area * radius * radius)

    assert stats.kstest(near, law).pvalue > 1e-3
    if disk_radius is not None:
        untruncated = stats.kstest(near,
                                   lambda r: -np.expm1(-per_area * r * r))
        assert untruncated.pvalue < 1e-6


def test_disk_too_small_to_hold_a_station_answers_at_once():
    # A 0.01 m disk holds a second station with chance 1.6e-8: every drop
    # is its serving station alone, drawn on the disk.
    scn = default_scenario()
    spec = SimulationSpec(num_drops=2000, seed=3, disk_radius=0.01)
    start = time.perf_counter()
    est = estimate_coverage(scn, spec)
    assert time.perf_counter() - start < 1.0
    assert (est.diagnostics["single_station_drops"] == est.diagnostics["drops"]
            == spec.num_drops)
    for blk in montecarlo._blocks(scn, spec, 0, spec.num_drops):
        assert blk.radii.max() <= spec.disk_radius


def test_conditional_block_lays_out_radii_in_draw_order():
    # Reference loop: each drop's segment is its pinned serving station,
    # then the annulus stations mapped from that drop's radius uniforms,
    # in draw order; the uniform of the serving slot is drawn and unused.
    r0, radius, drops = 150.0, 3000.0, 40
    spec = SimulationSpec(num_drops=drops, disk_radius=radius,
                          fixed_serving_distance=r0)
    blk = montecarlo._sampler(SCN, spec)(_block_rng(7, 0), drops)
    rng = _block_rng(7, 0)
    width = radius * radius - r0 * r0
    n = [int(rng.poisson(SCN.bs_density * math.pi * width))
         for _ in range(drops)]
    u = rng.random(sum(n) + drops)
    assert blk.counts.tolist() == [nj + 1 for nj in n]
    a = 0
    for lo, nj in zip(blk.starts, n):
        assert blk.radii[lo] == r0
        for k in range(1, nj + 1):
            assert blk.radii[lo + k] == math.sqrt(
                radius * radius - (1.0 - u[a + k]) * width)
        a += nj + 1
    assert a == blk.radii.size


def test_forced_serving_state_is_applied():
    spec = SimulationSpec(num_drops=1, disk_radius=3000.0,
                          fixed_serving_distance=400.0,
                          force_serving_los=False)
    for i in range(5):
        real = sample_network(SCN, spec, _block_rng(8, i))
        assert not real.los[0]


def test_fixed_distance_must_fit_in_disk():
    spec = SimulationSpec(num_drops=1, disk_radius=300.0,
                          fixed_serving_distance=500.0)
    with pytest.raises(DomainError):
        sample_network(SCN, spec, _block_rng(0, 0))


def test_fading_is_unit_mean():
    spec = SimulationSpec(num_drops=1, disk_radius=4000.0)
    real = sample_network(SCN, spec, _block_rng(42, 0))
    n = real.fading.size
    assert abs(real.fading.mean() - 1.0) < 4.0 / math.sqrt(n)


# ----------------------------------------------------------------------- SIR

def _station_power(scn, r, los, fading=1.0):
    # Written apart from the channel kernels: A (r^2 + dh^2)^(-alpha/2)
    # times the gain of the depression angle atan2(dh, r), main inside
    # [tilt - bw/2, tilt + bw/2] and side outside.
    ch, pat = scn.channel, scn.pattern
    dh = scn.bs_height - scn.ue_height
    a, alpha = ((ch.intercept_los, ch.alpha_los) if los
                else (ch.intercept_nlos, ch.alpha_nlos))
    angle = math.degrees(math.atan2(dh, r))
    half = 0.5 * pat.beamwidth_deg
    gain = (pat.gain_main if pat.downtilt_deg - half <= angle
            <= pat.downtilt_deg + half else pat.gain_side)
    return scn.tx_power * gain * a * (r * r + dh * dh) ** (-0.5 * alpha) \
        * fading


def test_sir_symmetric_pair_is_one():
    blk = _one_drop([100.0, 100.0], [True, True], [0.7, 0.7])
    assert compute_sir(SCN, blk) == 1.0


def test_sir_hand_computed_three_stations():
    scn = make_scenario(ue_height=10.0)
    positions = np.array([[60.0, 0.0], [0.0, 130.0], [-200.0, 50.0]])
    los = np.array([True, False, True])
    fading = np.array([1.2, 0.8, 2.0])
    radii = np.hypot(positions[:, 0], positions[:, 1])
    # 60, 130 and 206 m for heights 30/10 m: no station near a lobe edge.
    terms = [_station_power(scn, float(radii[k]), bool(los[k]), fading[k])
             for k in range(3)]
    expect = terms[0] / (terms[1] + terms[2])
    assert_allclose(compute_sir(scn, _one_drop(radii, los, fading)), expect,
                    rtol=1e-12)


def test_sir_keeps_digits_of_weak_interference():
    # A line-of-sight station at 1 m next to a blocked one at 5 km: the
    # interference is ten orders below the signal, so subtracting the
    # signal from the total power would leave it with six digits.
    scn = default_scenario()
    blk = _one_drop([1.0, 5000.0], [True, False], np.ones(2))
    terms = [_station_power(scn, r, los)
             for r, los in ((1.0, True), (5000.0, False))]
    assert_allclose(compute_sir(scn, blk), terms[0] / terms[1], rtol=1e-12)


def test_sir_single_station_is_infinite():
    blk = _one_drop([math.hypot(50.0, 10.0)], [True], [1.0])
    assert compute_sir(SCN, blk) == math.inf
    assert compute_sir(SCN, blk, far_mean=1e-9) < math.inf


def test_sir_transmit_power_cancels():
    spec = SimulationSpec(num_drops=1, disk_radius=2000.0)
    blk = sample_network(SCN, spec, _block_rng(5, 0))
    base = compute_sir(SCN, blk)
    scaled = compute_sir(make_scenario(tx_power=10 ** 0.4), blk)
    assert_allclose(scaled, base, rtol=1e-12)


# ----------------------------------------------------------------- far field

def test_far_field_mean_matches_analytic_mean_interference():
    quad = QuadratureSpec()
    for r0 in (50.0, 100.0, 300.0):
        assert_allclose(_far_field_moments(SCN, r0)[0],
                        mean_interference(SCN, r0, quad), rtol=1e-6)


def test_far_field_mean_scales_with_power_and_decreases():
    a = _far_field_moments(SCN, 500.0)[0]
    assert _far_field_moments(SCN, 1000.0)[0] < a
    assert_allclose(
        _far_field_moments(make_scenario(tx_power=10 ** 0.4), 500.0)[0],
        10.0 * a, rtol=1e-12)


def test_shallow_los_decay_rejected():
    ch = ChannelParams(alpha_los=1.9, alpha_nlos=3.75,
                       intercept_los=7.762471166286911e-05,
                       intercept_nlos=0.0005128613839913648,
                       m_los=3, m_nlos=1)
    with pytest.raises(DomainError):
        estimate_coverage(make_scenario(channel=ch),
                          SimulationSpec(num_drops=10))


def test_far_field_tail_closes_for_slow_blocked_decay():
    # A blocked-path exponent barely above the convergence limit keeps
    # the far-field mean finite; the tail must close through the
    # line-of-sight occupancy decay instead of waiting for the
    # blocked-path power law itself to become negligible.
    ch = ChannelParams(alpha_los=2.09, alpha_nlos=2.05,
                       intercept_los=7.762471166286911e-05,
                       intercept_nlos=0.0005128613839913648,
                       m_los=3, m_nlos=1)
    scn = make_scenario(channel=ch)
    mean = _far_field_moments(scn, 500.0)[0]
    assert math.isfinite(mean) and mean > 0.0
    est = estimate_coverage(scn, SimulationSpec(num_drops=20, seed=3))
    assert 0.0 <= est.probability <= 1.0


def test_far_field_mean_of_never_blocked_links_is_power_law_closed_form():
    # Both terminals high above every rooftop: each clearance rounds to
    # exactly 1, so every link beyond the radius is line-of-sight and the
    # mean is the side-lobe power law's closed form, finite for any
    # exponent above 2.
    scn = NetworkScenario(bs_density=50e-6, bs_height=300.0,
                          ue_height=300.0, tx_power=10 ** -0.6,
                          sir_threshold=0.3, channel=CHANNEL,
                          env=URBAN, pattern=PATTERN)
    alpha = CHANNEL.alpha_los
    exact = (2.0 * math.pi * 50e-6 * 10 ** -0.6 * PATTERN.gain_side
             * CHANNEL.intercept_los * 500.0 ** (2.0 - alpha) / (alpha - 2.0))
    assert_allclose(_far_field_moments(scn, 500.0)[0], exact, rtol=1e-13)


# ---------------------------------------------------------------- estimation

def test_estimate_reference_value():
    est = estimate_coverage(SCN, SimulationSpec(num_drops=500, seed=11))
    assert isinstance(est, CoverageEstimate)
    assert est.probability == 0.322
    assert_allclose(est.std_error, 0.020895741192884256, rtol=1e-12)
    assert est.num_drops == 500
    assert est.diagnostics["disk_radius"] == pytest.approx(684.89, abs=0.01)


def _median_serving_spec(scn, num_drops: int, seed: int) -> SimulationSpec:
    # Serving station at the median nearest distance, forced line-of-sight.
    r0 = math.sqrt(math.log(2.0) / (math.pi * scn.bs_density))
    return SimulationSpec(num_drops=num_drops, seed=seed,
                          fixed_serving_distance=r0, force_serving_los=True)


def _abg_scenario(alpha: float, threshold: float):
    # Andrews-Baccelli-Ganti degenerate case: one exponent and intercept
    # for both states, equal 30 m heights, Rayleigh fading, flat antenna.
    base = default_scenario()
    channel = replace(base.channel, alpha_los=alpha, alpha_nlos=alpha,
                      intercept_nlos=base.channel.intercept_los,
                      m_los=1, m_nlos=1)
    return replace(base, bs_height=30.0, ue_height=30.0,
                   sir_threshold=threshold, channel=channel,
                   pattern=replace(base.pattern, gain_main=1.0,
                                   gain_side=1.0))


@pytest.mark.parametrize("case, probability, stations, radius", [
    pytest.param("ground", 0.757, 147160, 684.89, id="ground"),
    pytest.param("aerial", 0.343, 148000, 684.89, id="aerial"),
    pytest.param("conditional", 0.251, 147886, 684.89, id="conditional"),
    pytest.param("abg", 0.552, 147476, 684.89, id="abg"),
])
def test_estimate_seeded_outputs_are_pinned(case, probability, stations,
                                            radius):
    # One estimate per kind of spec the simulator serves, 2,000 drops each:
    # any change to the block kernel that moves a drop shows here.
    aerial = replace(default_scenario(), ue_height=60.0)
    scn, spec = {
        "ground": (replace(default_scenario(), ue_height=1.5),
                   SimulationSpec(num_drops=2000, seed=11)),
        "aerial": (aerial, SimulationSpec(num_drops=2000, seed=12)),
        "conditional": (aerial, _median_serving_spec(aerial, 2000, 13)),
        "abg": (_abg_scenario(4.0, 1.0),
                SimulationSpec(num_drops=2000, seed=14)),
    }[case]
    est = estimate_coverage(scn, spec, workers=1)
    assert est.probability == probability
    assert est.diagnostics["stations"] == stations
    assert est.diagnostics["disk_radius"] == pytest.approx(radius, abs=0.01)


def _auto_block(scn) -> int:
    # Drops per block on the scenario's automatic disk.
    return montecarlo._drops_per_block(scn, default_disk_radius(scn))


def test_block_is_the_largest_power_of_two_fitting_the_station_budget():
    # The automatic 685 m disk holds about 74 stations per drop, so its
    # blocks are 128 drops; the pilot's 256 drops on the 342 m floor are
    # one block.  Set disks follow the same rule, however far from the
    # default: one drop past the budget, 32,768 drops on 50 m.
    for ue_height in (1.5, 60.0, 150.0):
        assert _auto_block(replace(default_scenario(),
                                   ue_height=ue_height)) == 128
    scn = default_scenario()
    for radius, block in ((342.44, 512), (2739.57, 8), (5000.0, 4),
                          (10000.0, 1), (50.0, 32768)):
        per_drop = scn.bs_density * math.pi * radius * radius
        assert montecarlo._drops_per_block(scn, radius) == block
        assert block * per_drop <= montecarlo._BLOCK_STATIONS
        assert 2 * block * per_drop > montecarlo._BLOCK_STATIONS


def test_block_kernel_holds_a_bounded_number_of_block_sized_arrays():
    # A 60 m block on the 2,740 m disk the radius rule once picked holds 8
    # drops, about 9,600 stations, so each float array of its size takes
    # 8 bytes per station.  Past warm-up, the draw and the SIR pass peak
    # inside the path gain of the SIR pass: the block's radii, states and
    # fades beside three float arrays of the kernel, about 41 bytes per
    # station.  The bound of 45 admits that and not one more block-sized
    # float array at the peak.
    scn = replace(default_scenario(), ue_height=60.0)
    block = montecarlo._drops_per_block(scn, 2739.57)
    assert block == 8
    spec = SimulationSpec(num_drops=5 * block, seed=3, disk_radius=2739.57)
    draw = montecarlo._sampler(scn, spec)
    far = _far_field_moments(scn, spec.disk_radius)[0]
    for k in range(4):
        compute_sir(scn, draw(_block_rng(spec.seed, k), block), far)
    tracemalloc.start()
    try:
        blk = draw(_block_rng(spec.seed, 4), block)
        compute_sir(scn, blk, far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45 * blk.radii.size


def test_block_of_a_wide_set_disk_holds_a_bounded_station_count():
    # A set 10 km disk holds about 15,700 stations per drop, so its blocks
    # are one drop; drawing and judging one block stays under 2 MiB (0.6
    # MiB traced once warm, 1.3 MiB in a fresh process, against 2.4 MiB
    # for a 4-drop block).
    scn = replace(default_scenario(), ue_height=60.0)
    spec = SimulationSpec(num_drops=3, seed=5, disk_radius=10000.0)
    far = _far_field_moments(scn, spec.disk_radius)[0]
    montecarlo._sampler(scn, spec)   # line-of-sight table, cached
    block = montecarlo._drops_per_block(scn, spec.disk_radius)
    assert block == 1
    tracemalloc.start()
    try:
        draw = montecarlo._sampler(scn, spec)
        blk = draw(_block_rng(spec.seed, 0), block)
        compute_sir(scn, blk, far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_estimate_worker_invariant_on_halved_blocks():
    # A set 5,000 m disk holds about 3,927 stations per drop, so its blocks
    # are 4 drops, and chunks follow them.
    spec = SimulationSpec(num_drops=3 * 4 + 5, seed=8, disk_radius=5000.0)
    assert montecarlo._drops_per_block(SCN, spec.disk_radius) == 4
    a = estimate_coverage(SCN, spec, workers=1)
    for workers in (2, 3):
        b = estimate_coverage(SCN, spec, workers=workers)
        assert (a.probability, a.std_error) == (b.probability, b.std_error)
        assert a.diagnostics == b.diagnostics


def test_estimate_deterministic_and_worker_invariant():
    spec = SimulationSpec(num_drops=400, seed=5)
    a = estimate_coverage(SCN, spec, workers=1)
    b = estimate_coverage(SCN, spec, workers=2)
    c = estimate_coverage(SCN, spec, workers=1)
    assert a.probability == b.probability == c.probability
    assert a.std_error == b.std_error == c.std_error
    assert a.diagnostics == b.diagnostics


def test_estimate_reports_its_drops_and_stations():
    # The counts are integer sums over the drops, so every worker split
    # reports the same; the stations are those of blocks drawn one by one
    # from their own generators.
    block = _auto_block(SCN)
    spec = SimulationSpec(num_drops=2 * block + 3, seed=7)
    draw = montecarlo._sampler(SCN, spec)
    stations = sum(draw(_block_rng(7, k), size).radii.size
                   for k, size in enumerate((block, block, 3)))
    for workers in (1, 2):
        diag = estimate_coverage(SCN, spec, workers=workers).diagnostics
        assert (diag["drops"], diag["stations"]) == (spec.num_drops,
                                                     stations)


def test_worker_chunks_are_whole_blocks():
    for n, block in itertools.product((1, 7, 8, 3 * 128 + 5, 20000, 20001),
                                      (128, 16, 1)):
        for workers in (1, 2, 3, 4):
            bounds = montecarlo._chunk_bounds(n, workers, block)
            assert bounds[0] == 0 and bounds[-1] == n
            assert all(b % block == 0 for b in bounds[:-1])
            assert all(a < b for a, b in zip(bounds, bounds[1:]))
            assert len(bounds) - 1 <= workers


def test_estimate_worker_invariant_across_unaligned_blocks():
    # 3 blocks and 5 drops: the last block is partial, and it must be
    # drawn whole by whichever worker holds it.
    spec = SimulationSpec(num_drops=3 * _auto_block(SCN) + 5, seed=6)
    a = estimate_coverage(SCN, spec, workers=1)
    for workers in (2, 3):
        b = estimate_coverage(SCN, spec, workers=workers)
        assert (a.probability, a.std_error) == (b.probability, b.std_error)
        assert a.diagnostics == b.diagnostics


def test_estimate_judges_each_block_through_compute_sir(monkeypatch):
    # compute_sir is the SIR stage the estimate runs, looked up in the
    # module on every block, so a wrapper put there (as bench/tracing.py
    # puts one) sees every block and changes no result.
    spec = SimulationSpec(num_drops=3 * _auto_block(SCN) + 5, seed=6)
    plain = estimate_coverage(SCN, spec)
    calls = []
    kernel = montecarlo.compute_sir

    def counted(*args):
        calls.append(args[1].counts.size)
        return kernel(*args)

    monkeypatch.setattr(montecarlo, "compute_sir", counted)
    est = estimate_coverage(SCN, spec)
    assert calls == [_auto_block(SCN)] * 3 + [5]
    assert (est.probability, est.std_error, est.diagnostics) == (
        plain.probability, plain.std_error, plain.diagnostics)


@pytest.mark.parametrize("ue_height, conditional", [
    (1.5, False), (60.0, False), (60.0, True)])
def test_estimate_follows_drop_by_drop_stream(ue_height, conditional):
    # Each drop of a block is judged as compute_sir judges its own slice
    # of the block's stations alone, and a one-drop estimate's field is
    # the one sample_network draws from the block-0 generator.
    base = make_scenario(ue_height=ue_height)
    spec = SimulationSpec(num_drops=3 * _auto_block(base) + 5, seed=4,
                          fixed_serving_distance=250.0 if conditional
                          else None,
                          force_serving_los=True if conditional else None)
    resolved = montecarlo._with_radius(base, spec)
    far = _far_field_moments(base, resolved.disk_radius)[0]
    sirs = []
    for blk in montecarlo._blocks(base, resolved, 0, spec.num_drops):
        block_sirs = compute_sir(base, blk, far)
        for sir, lo, k in zip(block_sirs, blk.starts, blk.counts):
            part = slice(lo, lo + k)
            alone = _one_drop(blk.radii[part], blk.los[part],
                              blk.fading[part])
            assert compute_sir(base, alone, far)[0] == sir
        sirs.extend(block_sirs)
    assert len(sirs) == spec.num_drops
    est = estimate_coverage(base, spec, workers=2)
    assert round(est.probability * spec.num_drops) == sum(
        sir > base.sir_threshold for sir in sirs)
    one = replace(spec, num_drops=1)
    sir = compute_sir(base, sample_network(base, one,
                                           _block_rng(spec.seed, 0)), far)[0]
    for thr, covered in ((sir * (1.0 - 1e-9), 1.0), (sir * (1.0 + 1e-9), 0.0)):
        est = estimate_coverage(make_scenario(ue_height=ue_height,
                                              sir_threshold=thr), one)
        assert est.probability == covered


def test_estimate_near_zero_threshold_is_covered():
    est = estimate_coverage(make_scenario(sir_threshold=1e-12),
                            SimulationSpec(num_drops=200, seed=1))
    assert est.probability == 1.0
    assert est.std_error == 0.0


def test_estimate_std_error_bernoulli_bound():
    est = estimate_coverage(SCN, SimulationSpec(num_drops=300, seed=9))
    assert est.std_error <= 0.5 / math.sqrt(300) + 1e-12


def test_disk_radius_sufficiency_with_coupled_fields():
    # Shrinking the simulated disk from the default to half of it while
    # adjusting the far-field offset must not move the estimate by more
    # than one standard error.  The comparison reuses the same sampled
    # fields (restriction of a Poisson field is a Poisson field), so the
    # only difference is the truncation treatment itself.
    full_r = default_disk_radius(SCN)
    half_r = 0.5 * full_r
    far_full = _far_field_moments(SCN, full_r)[0]
    far_half = _far_field_moments(SCN, half_r)[0]
    spec = SimulationSpec(num_drops=3000, disk_radius=full_r, seed=21)
    cov_full = cov_half = 0
    for i in range(spec.num_drops):
        blk = sample_network(SCN, spec, _block_rng(spec.seed, i))
        keep = blk.radii <= half_r
        inner = _one_drop(blk.radii[keep], blk.los[keep], blk.fading[keep])
        cov_full += compute_sir(SCN, blk, far_full)[0] > SCN.sir_threshold
        cov_half += compute_sir(SCN, inner, far_half)[0] > SCN.sir_threshold
    p_full = cov_full / spec.num_drops
    p_half = cov_half / spec.num_drops
    se = math.sqrt(max(p_full * (1.0 - p_full), 1e-12) / spec.num_drops)
    assert abs(p_full - p_half) <= se


def _floor_radius(scn) -> float:
    # Radius holding the nearest station but for the serving truncation.
    return math.sqrt(math.log(1.0 / montecarlo._SERVING_TRUNC)
                     / (math.pi * scn.bs_density))


@pytest.mark.parametrize("ue_height, num_drops, floor_resolved", [
    pytest.param(1.5, 40_000, True, id="1.5"),
    pytest.param(60.0, 8_000, False, id="60.0")])
def test_default_disk_moves_coupled_coverage_within_paired_noise(
        ue_height, num_drops, floor_resolved):
    # Drops on a 3,424 m disk are judged whole and restricted to the
    # default radius with that radius's far-field mean.  Restriction of a
    # Poisson field is a Poisson field, so only the replaced far field can
    # move a drop across the threshold.  Drops flip both ways, and the
    # estimate sees only their balance: the coverage difference must lie
    # within 4 paired standard errors, sqrt(flip rate - difference^2) over
    # sqrt(n).  At 60 m the 685 m disk flips about 0.4 % of the drops.
    # The same drops restricted to the 342 m serving floor are the
    # negative control: at 1.5 m the floor's bias, about -2e-3, lies 7
    # paired standard errors out over 40,000 drops (4.0 over 8,000), so a
    # rule that fell back to the floor would fail here; at 60 m the
    # floor's bias is below what 8,000 drops resolve.
    scn = make_scenario(ue_height=ue_height)
    radii = (default_disk_radius(scn), _floor_radius(scn))
    spec = SimulationSpec(num_drops=num_drops, seed=0,
                          disk_radius=10.0 * radii[1])
    far_full = _far_field_moments(scn, spec.disk_radius)[0]
    far_inner = [_far_field_moments(scn, r)[0] for r in radii]
    flips = np.zeros(2, np.int64)
    gained = np.zeros(2, np.int64)
    for blk in montecarlo._blocks(scn, spec, 0, num_drops):
        full = compute_sir(scn, blk, far_full) > scn.sir_threshold
        for i, (radius, far) in enumerate(zip(radii, far_inner)):
            inner = compute_sir(scn, replace(blk, fading=np.where(
                blk.radii <= radius, blk.fading, 0.0)), far)
            inner = inner > scn.sir_threshold
            flips[i] += np.count_nonzero(full != inner)
            gained[i] += np.count_nonzero(inner) - np.count_nonzero(full)
    diff = gained / num_drops
    paired_se = np.sqrt(flips / num_drops - diff * diff) / math.sqrt(num_drops)
    assert abs(diff[0]) <= 4.0 * paired_se[0]
    if floor_resolved:
        assert abs(diff[1]) > 4.0 * paired_se[1]


@pytest.mark.parametrize("ue_height", [1.5, 60.0, 150.0])
def test_default_radius_is_smallest_doubling_within_ripple_target(ue_height):
    scn = make_scenario(ue_height=ue_height)
    radius, scale = montecarlo._disk_profile(scn)
    doublings = round(math.log2(radius / _floor_radius(scn)))
    assert radius == _floor_radius(scn) * 2.0 ** doublings

    def ripple(r):
        return math.sqrt(montecarlo._far_field_moments(scn, r)[1]) / scale

    assert ripple(radius) <= montecarlo._RIPPLE_TARGET
    assert doublings == 0 or ripple(0.5 * radius) > montecarlo._RIPPLE_TARGET
    # The pilot has its own seed: the estimate's seed moves neither the
    # radius nor the scale, and a set radius is judged on the same scale.
    for seed, disk in ((0, None), (1, None), (99, None), (1, 800.0)):
        diag = estimate_coverage(scn, SimulationSpec(
            num_drops=40, seed=seed, disk_radius=disk)).diagnostics
        assert diag["disk_radius"] == (disk or radius)
        assert diag["ripple_scale"] == scale
        assert diag["far_ripple"] == ripple(diag["disk_radius"])


def test_pilot_seed_does_not_move_the_default_radius(monkeypatch):
    # The ripple scale is a pilot's noisy 10th percentile; over pilot seeds
    # 0-7 the 60 m ripple on 685 m reads 0.0220-0.0232 against the 0.025
    # target, so this guards the radius rule's margin.
    scenarios = [replace(default_scenario(), ue_height=h)
                 for h in (1.5, 60.0, 150.0)]
    expected = [default_disk_radius(scn) for scn in scenarios]
    try:
        for seed in range(8):
            monkeypatch.setattr(montecarlo, "_PILOT_SEED", seed)
            montecarlo._disk_profile.cache_clear()
            radii = [default_disk_radius(scn) for scn in scenarios]
            assert radii == expected
    finally:
        montecarlo._disk_profile.cache_clear()
    assert expected == [pytest.approx(684.89, abs=0.01)] * 3


def test_small_set_disk_reports_its_far_field_ripple():
    # A set radius is never refused, but the mean-only far-field offset is
    # biased on a disk this small, and far_ripple says so.
    est = estimate_coverage(default_scenario(),
                            SimulationSpec(200, disk_radius=50.0))
    assert est.diagnostics["far_ripple"] > montecarlo._RIPPLE_TARGET


def test_automatic_disk_doubles_past_a_pinned_serving_distance():
    scn = make_scenario(ue_height=1.5)
    r0 = 1.5 * default_disk_radius(scn)
    est = estimate_coverage(scn, SimulationSpec(
        num_drops=40, seed=2, fixed_serving_distance=r0))
    assert est.diagnostics["disk_radius"] == 2.0 * default_disk_radius(scn)


def test_estimate_rejects_bad_spec():
    with pytest.raises(DomainError):
        SimulationSpec(num_drops=0)
    with pytest.raises(DomainError):
        SimulationSpec(num_drops=10, disk_radius=-1.0)
    with pytest.raises(DomainError):
        SimulationSpec(num_drops=10, seed=-1)
    with pytest.raises(DomainError, match="64-bit"):
        SimulationSpec(num_drops=10, seed=2 ** 64)
    with pytest.raises(DomainError):
        SimulationSpec(num_drops=10, fixed_serving_distance=0.0)
    with pytest.raises(DomainError):
        estimate_coverage(SCN, SimulationSpec(num_drops=10), workers=0)


# ------------------------------------------------------- empirical transform

def test_laplace_empirical_reference_and_bounds():
    means, std_errs = laplace_empirical(
        SCN, SimulationSpec(num_drops=300, seed=12,
                            fixed_serving_distance=100.0), [5e7, 2e8])
    assert_allclose(means, [0.7815499081641029, 0.3771778844232483],
                    rtol=1e-12)
    assert np.all((means > 0.0) & (means < 1.0))
    assert np.all(std_errs > 0.0)
    assert means[0] > means[1]


def test_laplace_empirical_requires_conditioning():
    with pytest.raises(DomainError):
        laplace_empirical(SCN, SimulationSpec(num_drops=10), [1e7])
    with pytest.raises(DomainError):
        laplace_empirical(SCN, SimulationSpec(num_drops=10,
                                              fixed_serving_distance=100.0),
                          [-1.0])


def test_simulator_does_not_import_analytic_route():
    # The routes share only the physical layer; their agreement is evidence
    # of correctness only while the simulator never uses analytic code.
    tree = ast.parse(Path(montecarlo.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.append(base)
            imported += [f"{base}.{alias.name}" for alias in node.names]
    assert imported
    assert not [name for name in imported if "analytic" in name.split(".")]


def test_only_the_channel_layer_finds_the_main_lobe():
    # antenna_gain_curve finds the main lobe from the link heights, so no
    # module above channel.py works it out for itself.
    callers = {path.name
               for path in Path(montecarlo.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(
                   encoding="utf-8")))
               if isinstance(node, ast.Call)
               and _called_name(node) == "main_lobe_interval"}
    assert callers == {"channel.py"}


def _called_name(node: ast.Call) -> str:
    func = node.func
    return getattr(func, "id", None) or getattr(func, "attr", "")


def _names(tree) -> set:
    # Every name a syntax tree mentions: variables, attributes, imports.
    return {name for node in ast.walk(tree) for name in (
        getattr(node, "id", None), getattr(node, "attr", None),
        getattr(node, "name", None)) if isinstance(name, str)}


def test_far_field_shares_come_from_one_channel_kernel():
    # channel.los_tail_sums splits each power-law tail beyond a cut into
    # its line-of-sight and blocked shares, so neither route composes
    # them from the step table, the closed form or the blocked tail.
    src = Path(montecarlo.__file__).parent
    trees = {name: ast.parse((src / name).read_text(encoding="utf-8"))
             for name in ("montecarlo.py", "analytic.py")}
    funcs = {node.name: node for tree in trees.values()
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "power_law_integral" not in _names(trees["montecarlo.py"])
    assert not {"los_step_levels", "los_level_curve"} & _names(
        funcs["_far_field_moments"])
    assert "nlos_tail" not in _names(funcs["mean_interference"])
    # Past the handover every row's power law and its slack come from the
    # one law table of _Field.handover.
    assert not {"nlos_tail", "tail_start", "_power_terms"} & _names(
        trees["analytic.py"])
    assert {node.name for node in ast.walk(trees["analytic.py"])
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, ast.Call) and _called_name(n) == "_row_coefs"
                for n in ast.walk(node))} == {"handover"}


def test_los_step_rule_lives_in_channel():
    # channel.los_step_index is the one rule for which line-of-sight step
    # holds a ground distance: neither route truncates, floors, ceils or
    # rounds a division by a step width, and the simulator reads levels
    # through los_level_curve alone.
    src = Path(montecarlo.__file__).parent
    rounded = []
    for name in ("montecarlo.py", "analytic.py"):
        tree = ast.parse((src / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _called_name(node) in {"int", "ceil", "floor", "round"}:
                operands = node.args
            elif _called_name(node) == "astype":
                operands = [node.func.value]
            else:
                continue
            if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                   and "step" in (getattr(n.right, "id", None),
                                  getattr(n.right, "attr", None))
                   for arg in operands for n in ast.walk(arg)):
                rounded.append(f"{name}:{node.lineno}")
        if name == "montecarlo.py":
            assert not {"los_step_levels", "los_step_width"} & _names(tree)
    assert rounded == []


def test_traced_monte_carlo_stages_exist():
    # bench/tracing.py wraps these simulator names by lookup, so the
    # benchmark's --trace run breaks if one of them is deleted.
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracing.py")
                     .read_text(encoding="utf-8"))
    stages = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", "") for t in node.targets]
                  == ["MC_STAGES"])
    assert stages
    assert [name for name in stages if not hasattr(montecarlo, name)] == []


def test_package_has_one_adaptive_integrator():
    # quadrature.integrate_steps is the only refinement engine: every other
    # integrate_* in the package is a wrapper that calls it, every
    # integrate_* called is one of those, and only quadrature.py raises the
    # refinement QuadratureError, once.
    defined, wrappers, called, refusals = [], set(), set(), []
    for path in Path(montecarlo.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.FunctionDef)
                    and node.name.lstrip("_").startswith("integrate_")):
                defined.append((path.name, node.name))
                if any(isinstance(n, ast.Call)
                       and _called_name(n) == "integrate_steps"
                       for n in ast.walk(node)):
                    wrappers.add(node.name)
            elif (isinstance(node, ast.Call) and _called_name(node)
                    .lstrip("_").startswith("integrate_")):
                called.add(_called_name(node))
            elif (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and _called_name(node.exc) == "QuadratureError"
                    and "refinement" in ast.dump(node.exc)):
                refusals.append(path.name)
    assert [d for d in defined if d[0] == "quadrature.py"] == [
        ("quadrature.py", "integrate_steps")]
    assert {d[1] for d in defined} - {"integrate_steps"} <= wrappers
    assert "integrate_steps" in called
    assert called <= wrappers | {"integrate_steps"}
    assert refusals == ["quadrature.py"]
