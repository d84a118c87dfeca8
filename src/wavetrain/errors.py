"""Exception hierarchy shared across the package, and the one bound checker.

The error class alone decides the CLI exit code: config errors exit 2,
format errors 3, numeric errors 4, any other package error 1.

Every scalar bound on a setting or an argument is one ``check_range`` call
at the place that takes the value; only relations between values (such as
increasing milestones) are written out by hand. A size whose arrays could
not fit in ``physical_memory()`` is refused the same way, before numpy is
asked for them.
"""

import os
from numbers import Integral

import numpy as np

# every float setting is cast to float32, where a larger magnitude is inf
FLOAT32_MAX = float(np.finfo(np.float32).max)


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


class UnsupportedBaseError(ConfigError):
    """Requested wavelet base is not in the supported catalog."""


class ResolutionError(NumericError):
    """Quadrature grid too coarse for the requested scale."""


def check_range(name, value, interval, error=ConfigError):
    """Raise ``error`` unless ``value`` lies in ``interval``, written like
    ``"[1,inf)"`` or ``"(0,1]"`` with either bracket at either end. NaN lies
    in no interval, and a float must also be finite in float32; an integer
    is compared exactly and never cast."""
    lo, hi = (float(v) for v in interval[1:-1].split(","))
    if not ((lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        raise error(f"{name}={value!r} lies outside {interval}")
    if not isinstance(value, Integral) and abs(value) > FLOAT32_MAX:
        raise error(f"{name}={value!r} is not finite in float32")


def physical_memory():
    """Bytes of physical memory: no array a setting asks for may exceed it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
