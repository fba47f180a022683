"""Exception types shared across the package."""


class SatreachError(Exception):
    """Base class for all library-specific failures."""


class PreconditionError(SatreachError):
    """An operation was invoked outside its documented preconditions."""


class CertificateError(SatreachError, ValueError):
    """A shape matrix is not usable as a quadratic certificate."""


class SynthesisError(SatreachError):
    """No common quadratic certificate could be found."""


class NotApplicableError(SatreachError):
    """The conditional-tightening hypothesis fails; callers must fall back."""


class ConfigError(SatreachError):
    """Malformed or inconsistent analysis configuration."""
