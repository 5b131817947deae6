"""Human-unit configuration: defaults, file parsing and serialization.

Config files use a flat sectioned key-value grammar::

    # comment
    [scenario]
    ue_height_m = 60.0
    environment = urban

    [environment.custom]
    built_fraction = 0.4
    buildings_per_km2 = 400.0
    height_scale_m = 12.0

Values are stored exactly as written, in human units (dB for powers and
path-loss intercepts, degrees for angles, per-km2 for densities, meters
for lengths).  Conversion to the internal linear/SI representation
happens exactly once, inside :meth:`ConfigFile.to_scenario` and friends,
so serializing and re-parsing a config is lossless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .analytic import NetworkScenario, QuadratureSpec
from .channel import AntennaPattern, ChannelParams, EnvironmentParams
from .errors import ConfigError, DomainError
from .montecarlo import SimulationSpec

__all__ = [
    "ConfigFile",
    "EnvironmentConfig",
    "ScenarioConfig",
    "SimulationConfig",
    "builtin_environments",
    "default_config",
    "default_scenario",
    "parse_config",
    "serialize_config",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario block in human units; defaults are the reference set."""

    bs_density_per_km2: float = 50.0
    bs_height_m: float = 30.0
    ue_height_m: float = 60.0
    tx_power_db: float = -6.0
    sir_threshold: float = 0.3
    alpha_los: float = 2.09
    alpha_nlos: float = 3.75
    intercept_los_db: float = -41.1
    intercept_nlos_db: float = -32.9
    m_los: int = 3
    m_nlos: int = 1
    beamwidth_deg: float = 40.0
    downtilt_deg: float = 30.0
    gain_main: float = 10.0
    gain_side: float = 0.5
    environment: str = "urban"


@dataclass(frozen=True)
class EnvironmentConfig:
    """One built-environment preset in human units."""

    built_fraction: float
    buildings_per_km2: float
    height_scale_m: float

    def to_params(self) -> EnvironmentParams:
        return EnvironmentParams(self.built_fraction, self.buildings_per_km2,
                                 self.height_scale_m)


@dataclass(frozen=True)
class SimulationConfig:
    num_drops: int = 20000
    seed: int = 0
    disk_radius_m: float | None = None


# Standard parameter sets of the four reference environment classes.
_BUILTIN_ENVIRONMENTS: tuple[tuple[str, EnvironmentConfig], ...] = (
    ("suburban", EnvironmentConfig(0.1, 750.0, 8.0)),
    ("urban", EnvironmentConfig(0.3, 500.0, 15.0)),
    ("dense-urban", EnvironmentConfig(0.5, 300.0, 20.0)),
    ("highrise-urban", EnvironmentConfig(0.5, 300.0, 50.0)),
)


@dataclass(frozen=True)
class ConfigFile:
    """Parsed configuration; every field keeps its human-unit value.  The
    quadrature knobs are unit-free, so they are held as the analytic
    route's own :class:`QuadratureSpec`."""

    scenario: ScenarioConfig = ScenarioConfig()
    quadrature: QuadratureSpec = QuadratureSpec()
    simulation: SimulationConfig = SimulationConfig()
    environments: tuple[tuple[str, EnvironmentConfig], ...] = \
        _BUILTIN_ENVIRONMENTS

    def environment(self, name: str) -> EnvironmentConfig:
        for key, env in self.environments:
            if key == name:
                return env
        known = ", ".join(key for key, _ in self.environments)
        raise ConfigError(
            f"unknown environment {name!r} (known: {known})")

    def to_scenario(self) -> NetworkScenario:
        """Build the internal scenario, applying unit conversions once."""
        s = self.scenario
        return NetworkScenario(
            bs_density=s.bs_density_per_km2 / 1e6,
            bs_height=s.bs_height_m,
            ue_height=s.ue_height_m,
            tx_power=10.0 ** (s.tx_power_db / 10.0),
            sir_threshold=s.sir_threshold,
            channel=ChannelParams(
                alpha_los=s.alpha_los,
                alpha_nlos=s.alpha_nlos,
                intercept_los=10.0 ** (s.intercept_los_db / 10.0),
                intercept_nlos=10.0 ** (s.intercept_nlos_db / 10.0),
                m_los=s.m_los,
                m_nlos=s.m_nlos),
            env=self.environment(s.environment).to_params(),
            pattern=AntennaPattern(
                beamwidth_deg=s.beamwidth_deg,
                downtilt_deg=s.downtilt_deg,
                gain_main=s.gain_main,
                gain_side=s.gain_side))

    def to_quadrature(self) -> QuadratureSpec:
        return self.quadrature

    def to_simulation(self, num_drops: int | None = None,
                      seed: int | None = None) -> SimulationSpec:
        sim = self.simulation
        return SimulationSpec(
            num_drops=sim.num_drops if num_drops is None else num_drops,
            disk_radius=sim.disk_radius_m,
            seed=sim.seed if seed is None else seed)


def default_config() -> ConfigFile:
    return ConfigFile()


def builtin_environments() -> tuple[tuple[str, EnvironmentParams], ...]:
    """The built-in environment presets as internal parameter sets."""
    return tuple((name, env.to_params())
                 for name, env in _BUILTIN_ENVIRONMENTS)


def default_scenario() -> NetworkScenario:
    """Internal scenario built from the reference defaults."""
    return ConfigFile().to_scenario()


# --------------------------------------------------------------- parsing

def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value

def _parse_int(text: str) -> int:
    if not text.lstrip("+-").isdigit():
        raise ValueError("must be an integer")
    return int(text)


def _positive(value: float) -> float:
    if value <= 0.0:
        raise ValueError("must be positive")
    return value


def _fraction(value: float) -> float:
    if not 0.0 < value <= 1.0:
        raise ValueError("must lie in (0, 1]")
    return value


def _count(value: int) -> int:
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _seed(value: int) -> int:
    if not 0 <= value < 2 ** 64:
        raise ValueError("must fit in an unsigned 64-bit integer")
    return value


def _identity(value):
    return value


# key -> (reader, range check) per section kind.
_SCENARIO_KEYS = {
    "bs_density_per_km2": (_parse_float, _positive),
    "bs_height_m": (_parse_float, _positive),
    "ue_height_m": (_parse_float, _positive),
    "tx_power_db": (_parse_float, _identity),
    "sir_threshold": (_parse_float, _positive),
    "alpha_los": (_parse_float, _positive),
    "alpha_nlos": (_parse_float, _positive),
    "intercept_los_db": (_parse_float, _identity),
    "intercept_nlos_db": (_parse_float, _identity),
    "m_los": (_parse_int, _count),
    "m_nlos": (_parse_int, _count),
    "beamwidth_deg": (_parse_float, _positive),
    "downtilt_deg": (_parse_float, _identity),
    "gain_main": (_parse_float, _positive),
    "gain_side": (_parse_float, _positive),
    "environment": (str, _identity),
}
_ENVIRONMENT_KEYS = {
    "built_fraction": (_parse_float, _fraction),
    "buildings_per_km2": (_parse_float, _positive),
    "height_scale_m": (_parse_float, _positive),
}
# QuadratureSpec checks its own ranges.
_QUADRATURE_KEYS = {
    "rel_tol": (_parse_float, _identity),
    "abs_tol": (_parse_float, _identity),
    "outer_trunc_prob": (_parse_float, _identity),
    "max_panels": (_parse_int, _identity),
    "max_rounds": (_parse_int, _identity),
}
_SIMULATION_KEYS = {
    "num_drops": (_parse_int, _count),
    "seed": (_parse_int, _seed),
    "disk_radius_m": (_parse_float, _positive),
}


def _read_entries(text: str):
    # Yields (section, key, raw value, line number) with syntax checking.
    section = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section name", line=num)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=num)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=num)
        if section is None:
            raise ConfigError("key appears before any [section] header",
                              key=key, line=num)
        yield section, key, value, num


def _apply_section(obj, table, updates, section):
    for key, (value, num) in updates.items():
        reader, check = table[key]
        try:
            # The replaced object's own range checks (DomainError is a
            # ValueError) are reported with the key and line too.
            obj = replace(obj, **{key: check(reader(value))})
        except ValueError as exc:
            raise ConfigError(
                f"bad value {value!r} for [{section}] ({exc})",
                key=key, line=num) from None
    return obj


def parse_config(text: str) -> ConfigFile:
    """Parse config text, filling every omitted key from the defaults.

    Raises :class:`ConfigError` naming the offending key and line for
    unknown sections or keys, malformed values, and out-of-range values.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    order: list[str] = []
    for section, key, value, num in _read_entries(text):
        known = {
            "scenario": _SCENARIO_KEYS,
            "quadrature": _QUADRATURE_KEYS,
            "simulation": _SIMULATION_KEYS,
        }.get(section)
        if known is None:
            if not section.startswith("environment."):
                raise ConfigError(f"unknown section [{section}]", line=num)
            if section == "environment.":
                raise ConfigError("environment section needs a name",
                                  line=num)
            known = _ENVIRONMENT_KEYS
        if key not in known:
            raise ConfigError(f"unknown key in [{section}]",
                              key=key, line=num)
        entries = sections.setdefault(section, {})
        if key in entries:
            raise ConfigError(f"duplicate key in [{section}]",
                              key=key, line=num)
        if section not in order:
            order.append(section)
        entries[key] = (value, num)

    cfg = ConfigFile(
        scenario=_apply_section(ScenarioConfig(), _SCENARIO_KEYS,
                                sections.pop("scenario", {}), "scenario"),
        quadrature=_apply_section(QuadratureSpec(), _QUADRATURE_KEYS,
                                  sections.pop("quadrature", {}),
                                  "quadrature"),
        simulation=_apply_section(SimulationConfig(), _SIMULATION_KEYS,
                                  sections.pop("simulation", {}),
                                  "simulation"))

    environments = list(cfg.environments)
    for section in order:
        if section not in sections:
            continue
        name = section[len("environment."):]
        updates = sections[section]
        base = dict(environments).get(name)
        if base is None:
            missing = [k for k in _ENVIRONMENT_KEYS if k not in updates]
            if missing:
                line = min(num for _, num in updates.values())
                raise ConfigError(
                    f"environment {name!r} is missing key(s) "
                    f"{', '.join(missing)}", line=line)
            # All keys present, so the placeholder is fully overwritten.
            base = EnvironmentConfig(1.0, 1.0, 1.0)
            env = _apply_section(base, _ENVIRONMENT_KEYS, updates, section)
            environments.append((name, env))
        else:
            env = _apply_section(base, _ENVIRONMENT_KEYS, updates, section)
            environments = [(k, env if k == name else v)
                            for k, v in environments]
    cfg = replace(cfg, environments=tuple(environments))

    try:
        cfg.to_scenario()
    except (ConfigError, DomainError, ValueError) as exc:
        raise ConfigError(f"config is not usable: {exc}") from None
    return cfg


# ---------------------------------------------------------- serialization

def _format_value(value) -> str:
    return value if isinstance(value, str) else repr(value)


def serialize_config(cfg: ConfigFile) -> str:
    """Render a config back to text; parsing the result reproduces it."""
    lines: list[str] = []
    for title, obj in (("scenario", cfg.scenario),
                       ("quadrature", cfg.quadrature),
                       ("simulation", cfg.simulation)):
        lines.append(f"[{title}]")
        for fld in fields(obj):
            value = getattr(obj, fld.name)
            if value is None:
                continue
            lines.append(f"{fld.name} = {_format_value(value)}")
        lines.append("")
    for name, env in cfg.environments:
        lines.append(f"[environment.{name}]")
        for fld in fields(env):
            lines.append(f"{fld.name} = {_format_value(getattr(env, fld.name))}")
        lines.append("")
    return "\n".join(lines)
