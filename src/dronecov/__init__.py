"""Downlink coverage probability of aerial and ground users served by a
randomly scattered cellular network, via exact conditional-transform
integrals and an independent Monte Carlo simulator."""

from .analytic import (MAX_FADING_ORDER, CoverageResult, NetworkScenario,
                       QuadratureSpec, conditional_coverage,
                       coverage_probability, laplace_derivatives,
                       laplace_interference, mean_interference,
                       serving_distance_pdf)
from .channel import (AntennaPattern, ChannelParams, EnvironmentParams,
                      los_step_levels)
from .config import (ConfigFile, builtin_environments, default_config,
                     default_scenario, parse_config, serialize_config)
from .errors import (CapabilityError, ConfigError, DomainError,
                     QuadratureError)
from .experiments import (SweepAxis, SweepResult, SweepSpec,
                          ValidationReport, figure2_preset, figure3_preset,
                          figure4_preset, sweep, validate)
from .montecarlo import (CoverageEstimate, SimulationSpec, estimate_coverage,
                         laplace_empirical)

__version__ = "0.1.0"

__all__ = [
    "AntennaPattern",
    "CapabilityError",
    "ChannelParams",
    "ConfigError",
    "ConfigFile",
    "CoverageEstimate",
    "CoverageResult",
    "DomainError",
    "EnvironmentParams",
    "MAX_FADING_ORDER",
    "NetworkScenario",
    "QuadratureError",
    "QuadratureSpec",
    "SimulationSpec",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "ValidationReport",
    "builtin_environments",
    "conditional_coverage",
    "coverage_probability",
    "default_config",
    "default_scenario",
    "estimate_coverage",
    "figure2_preset",
    "figure3_preset",
    "figure4_preset",
    "laplace_derivatives",
    "laplace_empirical",
    "laplace_interference",
    "los_step_levels",
    "mean_interference",
    "parse_config",
    "serialize_config",
    "serving_distance_pdf",
    "sweep",
    "validate",
]
