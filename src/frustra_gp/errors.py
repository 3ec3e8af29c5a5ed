"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError and UsageError are caller
mistakes (exit 1); the remaining subclasses signal numerical or resolution
failures during a computation (exit 2).
"""


class FrustraGpError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FrustraGpError):
    """Invalid physical parameters, angles, grids, or config-file content."""


class UsageError(FrustraGpError):
    """Malformed command line (unknown flag, missing required argument)."""


class DimensionCapError(FrustraGpError):
    """Requested exact evolution exceeds the oracle's bath-size cap."""


class ResolutionError(FrustraGpError):
    """Time grid too coarse for a reliable phase unwrap; refine and retry."""


class IndeterminatePhaseError(FrustraGpError):
    """Phase argument of a complex number with modulus below tolerance."""


class PreconditionError(FrustraGpError):
    """A method was called on a state or track that violates its contract."""


class OracleError(FrustraGpError):
    """Block eigensolver failure inside the exact-evolution reference."""


__all__ = [
    "ConfigError",
    "DimensionCapError",
    "FrustraGpError",
    "IndeterminatePhaseError",
    "OracleError",
    "PreconditionError",
    "ResolutionError",
    "UsageError",
]
