"""Exception types shared across the package."""


class VaradhanLabError(Exception):
    """Base class for all package errors."""


class ZeroModeError(VaradhanLabError):
    """Spectral density requested at the zero frequency where it is undefined."""


class QuadratureError(VaradhanLabError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class GridError(VaradhanLabError):
    """Grid parameters violate a structural requirement."""


class ShapeError(VaradhanLabError):
    """Operands live on incompatible grids or coordinate systems."""


class BlowUpError(VaradhanLabError):
    """Time stepping produced non-finite values."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class MemoryBudgetError(VaradhanLabError):
    """Requested computation exceeds the configured memory budget."""


class BracketError(VaradhanLabError):
    """Constructive control failed to bracket the requested target."""


class TiltError(VaradhanLabError):
    """Importance-sampling tilt produced a degenerate weighted ensemble."""


class ConfigError(VaradhanLabError):
    """Experiment configuration is invalid."""
