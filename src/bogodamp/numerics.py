"""Shared 1d numerics: adaptive quadrature and its tail maps.

The quadrature backend is adaptive Gauss-Kronrod with interior nodes only,
so integrands with removable endpoint behaviour are never evaluated exactly
at an endpoint.  Semi-infinite integrals are folded onto (0, 1) by an
explicit change of variables before the adaptive pass.  Two maps are
offered: the rational map t = a + c*s/(1-s), which handles power law and
exponential tails alike once c roughly matches the decay scale, and the
exponential map t = a - c*log(1-s) for integrands that die like exp(-t/c).
Error estimates come straight from the Kronrod pair and are conservative
in the usual sense: trustworthy as an upper bound most of the time, and
never off by much more than an order of magnitude on sane integrands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from scipy import integrate

from .errors import IntegrandError, ParameterError

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "integrate_adaptive",
]

_TAIL_MAPS = ("none", "rational", "exponential")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one adaptive integration.

    abs_tol = 0 with rel_tol > 0 asks for pure relative control.  The
    tail_map is only consulted when the upper limit is infinite and
    tail_scale sets the decay scale `c` of that map.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 0.0
    max_subdivisions: int = 2000
    tail_map: str = "rational"
    tail_scale: float = 1.0

    def __post_init__(self):
        if not (self.rel_tol >= 0 and self.abs_tol >= 0):
            raise ParameterError("tolerances must be >= 0")
        if self.rel_tol == 0 and self.abs_tol == 0:
            raise ParameterError("need rel_tol > 0 or abs_tol > 0")
        if self.max_subdivisions < 10:
            raise ParameterError(
                f"max_subdivisions must be >= 10, got {self.max_subdivisions}")
        if self.tail_map not in _TAIL_MAPS:
            raise ParameterError(
                f"tail_map must be one of {_TAIL_MAPS}, got {self.tail_map!r}")
        if not (math.isfinite(self.tail_scale) and self.tail_scale > 0):
            raise ParameterError("tail_scale must be positive and finite")


class QuadResult(NamedTuple):
    value: float
    error: float
    ok: bool


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate f from a to b, b = inf allowed.

    Returns (value, error, ok).  ok is False when the subdivision budget
    ran out or roundoff blocked the requested tolerance; the value and the
    error estimate are still the best available, never silently wrong.
    Non-finite integrand values raise IntegrandError with the location.
    """
    if spec is None:
        spec = QuadratureSpec()
    a = float(a)
    b = float(b)
    if not math.isfinite(a):
        raise ParameterError(f"lower limit must be finite, got {a}")
    if math.isnan(b):
        raise ParameterError("upper limit is nan")

    def checked(x):
        y = f(x)
        if not math.isfinite(y):
            raise IntegrandError(f"integrand returned {y!r} at x = {x!r}")
        return y

    if math.isinf(b):
        if spec.tail_map == "none":
            raise ParameterError("infinite upper limit needs a tail_map")
        c = spec.tail_scale
        if spec.tail_map == "rational":
            def folded(s):
                onems = 1.0 - s
                return checked(a + c * s / onems) * c / (onems * onems)
        else:
            def folded(s):
                onems = 1.0 - s
                return checked(a - c * math.log(onems)) * c / onems
        target, lo, hi = folded, 0.0, 1.0
    else:
        target, lo, hi = checked, a, b

    if lo == hi:
        return QuadResult(0.0, 0.0, True)

    out = integrate.quad(target, lo, hi, epsabs=spec.abs_tol,
                         epsrel=spec.rel_tol, limit=spec.max_subdivisions,
                         full_output=1)
    # a 4th element is the warning message quadpack attaches on trouble
    return QuadResult(float(out[0]), float(out[1]), len(out) < 4)
