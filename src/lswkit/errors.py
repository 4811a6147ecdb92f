"""Exception types shared across the package."""


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
