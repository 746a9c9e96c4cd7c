"""Exception types shared across the package, and _checked_finite, the one
check that an argument is finite and >= 0 (or > 0): every such check
raises DomainError "<name> must be finite and >= 0, got <value>", without
the value where the argument may be an array."""
import math

import numpy as np


class BogodampError(Exception):
    """Base class for everything this package raises on purpose."""


class ParameterError(BogodampError, ValueError):
    """Invalid parameter, configuration value, or malformed input file."""


class DomainError(BogodampError, ValueError):
    """A function was evaluated outside its mathematical domain."""


class SingularityError(DomainError):
    """Evaluation at a point where the quantity is genuinely singular."""


class RangeError(DomainError):
    """Energy or momentum lies outside the covered branch range."""


class ExtrapolationError(DomainError):
    """A tabulated potential was queried beyond its grid."""


class SingularMeasureError(DomainError):
    """Measure factor requested at a stationary point of the dispersion."""


class AssumptionError(BogodampError):
    """The potential model violates an assumption the computation needs."""


class IntegrandError(BogodampError):
    """An integrand returned a non-finite value."""


def _checked_finite(name, value, *, positive=False, arrays=False):
    """value as a float, DomainError unless finite and >= 0 (> 0 when
    positive).  With arrays, a value with a dimension is checked and
    returned as a float array, and the message names no value."""
    relation = "> 0" if positive else ">= 0"
    if arrays and type(value) is not float:
        arr = np.asarray(value, dtype=float)
        if arr.ndim:
            if not (np.all(np.isfinite(arr))
                    and np.all(arr > 0 if positive else arr >= 0)):
                raise DomainError(f"{name} must be finite and {relation}")
            return arr
    value = float(value)
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise DomainError(f"{name} must be finite and {relation}"
                          + ("" if arrays else f", got {value}"))
    return value
