"""Exception types shared across the package."""


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


class SupportError(BogodampError):
    """Energy conservation support could not be resolved."""


class NearSingularRootError(SupportError):
    """A conservation root sits where the dispersion slope vanishes."""


class IntegrandError(BogodampError):
    """An integrand returned a non-finite value."""

