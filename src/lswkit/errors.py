"""Exception types shared across the package."""
import math


class LswkitError(Exception):
    """Base class for all package errors."""


class NonIntegrableTailError(LswkitError):
    """Tail model does not yield a finite integral (power exponent <= 1)."""


class DegenerateProfileError(LswkitError):
    """Profile violates an invariant needed by the requested operation."""


class UnsupportedOperationError(LswkitError):
    """Operation requires properties the input does not have."""


class DegenerateImageError(LswkitError):
    """Map image collapses to a constant (F(0) at or beyond the support end)."""


class ExtinctionError(LswkitError):
    """Too few surviving characteristics to continue a run."""


class ConfigError(LswkitError):
    """Scenario configuration is malformed."""


class ConvergenceWarning(RuntimeWarning):
    """An iterative kernel reached its iteration cap before converging."""


def require_setting(key: str, value: float, sign: str = ">") -> None:
    """Raise a ConfigError naming ``key`` unless ``value`` is finite and ``sign`` 0
    ("": any value; "(0, 1)": in that interval)."""
    inside, domain = {">": (value > 0, "> 0"), ">=": (value >= 0, ">= 0"), "": (True, ""),
                      "(0, 1)": (0 < value < 1, "in (0, 1)")}[sign]
    if not (math.isfinite(value) and inside):
        raise ConfigError(f"{key} = {value:g} must be finite" + (f" and {domain}" if domain else ""))
