"""Exception types shared across the package."""


class NfcrbError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NfcrbError):
    """An argument is outside the mathematical domain of the operation."""


class SingularGeometryError(DomainError):
    """Geometry hits a 1/cos(theta)-style singularity (e.g. endfire target)."""


class DegenerateGeometryError(DomainError):
    """Geometry collapses (target coincident with an array center, etc.)."""


class ConfigError(NfcrbError):
    """Invalid experiment/CLI configuration."""
