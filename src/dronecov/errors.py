"""Exception types shared across the package, and the range check that
raises the most common one."""

from __future__ import annotations

import math


class DomainError(ValueError):
    """A parameter or argument lies outside its physically meaningful range."""


class ConfigError(ValueError):
    """A config file could not be parsed or contains invalid entries."""

    def __init__(self, message: str, *, key: str | None = None,
                 line: int | None = None) -> None:
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if key is not None:
            parts.append(f"key {key!r}")
        if parts:
            message = f"{message} ({', '.join(parts)})"
        super().__init__(message)
        self.key = key
        self.line = line


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""

    def __init__(self, message: str, diagnostics: dict | None = None) -> None:
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class CapabilityError(RuntimeError):
    """The requested computation is outside what this implementation supports."""


def require_positive(params, *names: str) -> None:
    """Raise :class:`DomainError` for the first field of ``params`` named
    in ``names`` that is not a positive finite number; NaN fails too."""
    for name in names:
        value = getattr(params, name)
        if not 0.0 < value < math.inf:
            raise DomainError(
                f"{name} must be positive and finite, got {value}")
