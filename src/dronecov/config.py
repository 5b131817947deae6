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

Only the scenario needs unit conversion: it is stored exactly as written,
in human units (dB for powers and path-loss intercepts, degrees for
angles, per-km2 for densities, meters for lengths), and converted to the
internal linear/SI representation exactly once, inside
:meth:`ConfigFile.to_scenario`, so serializing and re-parsing a config is
lossless.  The other sections are held as the types they configure
(:class:`QuadratureSpec`, :class:`SimulationSpec`,
:class:`EnvironmentParams`), whose own range checks apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .analytic import NetworkScenario, QuadratureSpec
from .channel import AntennaPattern, ChannelParams, EnvironmentParams
from .errors import ConfigError, DomainError
from .montecarlo import SimulationSpec

__all__ = [
    "ConfigFile",
    "ScenarioConfig",
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


# Standard parameter sets of the four reference environment classes.
_BUILTIN_ENVIRONMENTS: tuple[tuple[str, EnvironmentParams], ...] = (
    ("suburban", EnvironmentParams(0.1, 750.0, 8.0)),
    ("urban", EnvironmentParams(0.3, 500.0, 15.0)),
    ("dense-urban", EnvironmentParams(0.5, 300.0, 20.0)),
    ("highrise-urban", EnvironmentParams(0.5, 300.0, 50.0)),
)


@dataclass(frozen=True)
class ConfigFile:
    """Parsed configuration.  The scenario keeps its human-unit values;
    the unit-free sections are held as the types they configure: the
    analytic route's :class:`QuadratureSpec`, the simulation route's
    :class:`SimulationSpec` and named :class:`EnvironmentParams`."""

    scenario: ScenarioConfig = ScenarioConfig()
    quadrature: QuadratureSpec = QuadratureSpec()
    simulation: SimulationSpec = SimulationSpec()
    environments: tuple[tuple[str, EnvironmentParams], ...] = \
        _BUILTIN_ENVIRONMENTS

    def environment(self, name: str) -> EnvironmentParams:
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
            env=self.environment(s.environment),
            pattern=AntennaPattern(
                beamwidth_deg=s.beamwidth_deg,
                downtilt_deg=s.downtilt_deg,
                gain_main=s.gain_main,
                gain_side=s.gain_side))

    def to_simulation(self, seed: int | None = None) -> SimulationSpec:
        """The configured simulation spec; ``seed``, if given, overrides
        the configured one."""
        if seed is None:
            return self.simulation
        return replace(self.simulation, seed=seed)


def default_config() -> ConfigFile:
    return ConfigFile()


def builtin_environments() -> tuple[tuple[str, EnvironmentParams], ...]:
    """The built-in environment presets, in reference order."""
    return _BUILTIN_ENVIRONMENTS


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


# The scenario's human-unit values have no type of their own to check
# them, so their readers do.
def _positive(text: str) -> float:
    value = _parse_float(text)
    if value <= 0.0:
        raise ValueError("must be positive")
    return value


def _count(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


# key -> reader per section kind.  Each table also fixes the order in
# which the section is serialized.
_SCENARIO_KEYS = {
    "bs_density_per_km2": _positive,
    "bs_height_m": _positive,
    "ue_height_m": _positive,
    "tx_power_db": _parse_float,
    "sir_threshold": _positive,
    "alpha_los": _positive,
    "alpha_nlos": _positive,
    "intercept_los_db": _parse_float,
    "intercept_nlos_db": _parse_float,
    "m_los": _count,
    "m_nlos": _count,
    "beamwidth_deg": _positive,
    "downtilt_deg": _parse_float,
    "gain_main": _positive,
    "gain_side": _positive,
    "environment": str,
}
_QUADRATURE_KEYS = {
    "rel_tol": _parse_float,
    "abs_tol": _parse_float,
    "outer_trunc_prob": _parse_float,
}
_SIMULATION_KEYS = {
    "num_drops": _parse_int,
    "seed": _parse_int,
    "disk_radius_m": _parse_float,
}
_ENVIRONMENT_KEYS = {
    "built_fraction": _parse_float,
    "buildings_per_km2": _parse_float,
    "height_scale_m": _parse_float,
}
# Sections held by one ConfigFile field of the same name.
_SECTIONS = {
    "scenario": _SCENARIO_KEYS,
    "quadrature": _QUADRATURE_KEYS,
    "simulation": _SIMULATION_KEYS,
}
# Keys whose field is named without the unit suffix.
_FIELDS = {"disk_radius_m": "disk_radius", "height_scale_m": "height_scale"}


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
        try:
            # The replaced object's own range checks (DomainError is a
            # ValueError) are reported with the key and line too.
            obj = replace(obj, **{_FIELDS.get(key, key): table[key](value)})
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
    for section, key, value, num in _read_entries(text):
        known = _SECTIONS.get(section)
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
        entries[key] = (value, num)

    defaults = ConfigFile()
    cfg = ConfigFile(**{
        title: _apply_section(getattr(defaults, title), table,
                              sections.pop(title, {}), title)
        for title, table in _SECTIONS.items()})

    # What is left are the [environment.NAME] sections, in file order.
    environments = list(cfg.environments)
    for section, updates in sections.items():
        name = section[len("environment."):]
        base = dict(environments).get(name)
        if base is None:
            missing = [k for k in _ENVIRONMENT_KEYS if k not in updates]
            if missing:
                line = min(num for _, num in updates.values())
                raise ConfigError(
                    f"environment {name!r} is missing key(s) "
                    f"{', '.join(missing)}", line=line)
            # All keys present, so the placeholder is fully overwritten.
            base = EnvironmentParams(1.0, 1.0, 1.0)
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

def _section_lines(title: str, obj, table) -> list[str]:
    lines = [f"[{title}]"]
    for key in table:
        value = getattr(obj, _FIELDS.get(key, key))
        if value is not None:
            text = value if isinstance(value, str) else repr(value)
            lines.append(f"{key} = {text}")
    return lines + [""]


def serialize_config(cfg: ConfigFile) -> str:
    """Render a config back to text; parsing the result reproduces it."""
    lines: list[str] = []
    for title, table in _SECTIONS.items():
        lines += _section_lines(title, getattr(cfg, title), table)
    for name, env in cfg.environments:
        lines += _section_lines(f"environment.{name}", env,
                                _ENVIRONMENT_KEYS)
    return "\n".join(lines)
