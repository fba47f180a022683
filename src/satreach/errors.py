"""Exception types shared across the package."""


class SatreachError(Exception):
    """Base class for all library-specific failures."""


class PreconditionError(SatreachError):
    """An operation was invoked outside its documented preconditions."""


class CertificateError(SatreachError, ValueError):
    """A shape matrix is not usable as a quadratic certificate."""


class SynthesisError(SatreachError):
    """No common quadratic certificate could be found.

    `last_infeasible` records the largest contraction rate at which the
    feasibility subproblem was still declared infeasible.
    """

    def __init__(self, message: str, last_infeasible: float | None = None):
        super().__init__(message)
        self.last_infeasible = last_infeasible


class NotApplicableError(SatreachError):
    """The conditional-tightening hypothesis fails; callers must fall back."""


class ConfigError(SatreachError):
    """Malformed or inconsistent analysis configuration."""
