"""Exception types shared across the package."""


class SpinFringeError(Exception):
    """Base class for all package-specific failures."""


class NonConvergedError(SpinFringeError):
    """Pulse-map fixed-point iteration failed to reach tolerance."""


class _SolverError(SpinFringeError):
    """A numeric failure at delay ``tau`` and time ``t``; None where either is unknown."""

    def __init__(self, message: str, tau: float | None = None, t: float | None = None):
        super().__init__(message)
        self.tau = tau
        self.t = t


class BracketEscapeError(_SolverError):
    """Relaxation seed outside the search bracket, or no root between it and the edge."""


class GridTooSmallError(_SolverError):
    """Probability density reached the edge of the solver grid."""


class CflViolationError(_SolverError):
    """Stable time step of a density solver fell below the floor."""


class ConfigParseError(SpinFringeError):
    """Malformed configuration text."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ConfigValidationError(SpinFringeError):
    """Structurally valid configuration that violates an invariant."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = f" (key '{key}'" + (f", line {line})" if line is not None else ")") if key else ""
        super().__init__(message + where)
        self.key = key
        self.line = line
