"""Inputs of the three workloads, built from the package's public API.

Every workload and the reference builder take their scenarios from here, so
the benchmark and its stored reference always describe the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import replace

from dronecov import SimulationSpec, default_scenario, figure3_preset

# (label, user height in m) of the default urban scenario.
HEIGHTS = (("ground", 1.5), ("60m", 60.0), ("150m", 150.0))

# (alpha, SIR threshold) of the Andrews-Baccelli-Ganti degenerate cases.
ABG_CASES = ((3.0, 0.3), (3.0, 1.0), (4.0, 0.3), (4.0, 1.0))

# The degenerate case the Monte Carlo workload simulates.
MC_ABG_CASE = (4.0, 1.0)

# figure3-ground rows whose analytic value is checked against the stored
# Monte Carlo reference: every environment-tilt label once, station heights
# 10-150 m, coverage 0.08-0.85 so that the reference's standard error is a
# small share of the value.
SPOT_ROWS = ((10.0, "suburban-t15"), (70.0, "suburban-t30"),
             (40.0, "urban-t15"), (100.0, "urban-t30"),
             (70.0, "dense-urban-t15"), (100.0, "dense-urban-t30"),
             (150.0, "highrise-urban-t15"), (100.0, "highrise-urban-t30"))


def at_height(ue_height: float):
    return replace(default_scenario(), ue_height=ue_height)


def abg_scenario(alpha: float, threshold: float):
    """Both link states share exponent and intercept, both heights are
    30 m, fading is Rayleigh and the antenna is isotropic: the setting of
    the Andrews-Baccelli-Ganti closed form."""
    base = default_scenario()
    channel = replace(base.channel, alpha_los=alpha, alpha_nlos=alpha,
                      intercept_nlos=base.channel.intercept_los,
                      m_los=1, m_nlos=1)
    pattern = replace(base.pattern, gain_main=1.0, gain_side=1.0)
    return replace(base, bs_height=30.0, ue_height=30.0,
                   sir_threshold=threshold, channel=channel, pattern=pattern)


def median_serving_distance(scn) -> float:
    return math.sqrt(math.log(2.0) / (math.pi * scn.bs_density))


def conditional_spec(scn, num_drops: int, seed: int) -> SimulationSpec:
    """Serving station at the median distance, serving link forced LoS."""
    return SimulationSpec(num_drops=num_drops, seed=seed,
                          fixed_serving_distance=median_serving_distance(scn),
                          force_serving_los=True)


def sweep_spec():
    """figure3-ground, analytic rows only: 15 heights x 8 env-tilts."""
    return replace(figure3_preset("ground"), methods=("analytic",))


def spot_scenario(spec, bs_height: float, label: str):
    """Scenario of one sweep row, built as the sweep builds it: the first
    axis sets the station height, the second the tilt and environment."""
    (h_axis, env_axis) = spec.axes
    if h_axis.parameter != "bs_height" or env_axis.parameter != (
            "pattern.downtilt_deg", "env"):
        raise ValueError("unexpected figure3 axes")
    tilt, env = env_axis.values[env_axis.labels.index(label)]
    base = spec.base
    return replace(base, bs_height=bs_height, env=env,
                   pattern=replace(base.pattern, downtilt_deg=tilt))
