"""Exception hierarchy shared across the package.

Error categories map onto CLI exit codes: config errors exit 2, format
errors exit 3, numeric errors exit 4, any other package error 1.
"""


class WavetrainError(Exception):
    """Base class for all package errors."""


class DimensionError(WavetrainError, ValueError):
    """Tensor or filter shapes are incompatible with the requested operation."""


class InputError(WavetrainError, ValueError):
    """Input values violate a precondition (e.g. label out of range)."""


class UsageError(WavetrainError, RuntimeError):
    """API misuse (e.g. backward on a non-scalar, missing gradients)."""


class ConfigError(WavetrainError, ValueError):
    """Invalid configuration key or value."""


class FormatError(WavetrainError, ValueError):
    """Malformed file content (dataset or checkpoint). Carries a byte offset
    when one is known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(WavetrainError, ArithmeticError):
    """Non-finite values where finite ones are required."""


class UnsupportedBaseError(WavetrainError, ValueError):
    """Requested wavelet base is not in the supported catalog."""


class ResolutionError(WavetrainError, ValueError):
    """Quadrature grid too coarse for the requested scale."""
