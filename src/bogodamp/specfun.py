"""Polylogarithms and the two closed form thermal kernels.

Only what the damping laws need is implemented: Li_n(z) for integer
n in [2, 8] and real z in [0, 1], the Riemann zeta values backing it,
the Beliaev kernel I(theta) (beliaev_I, its closed form), and the Landau
moment kernels G_k(theta) (landau_Gk).  beliaev_I_quadrature and
landau_Gk_quadrature integrate the defining integrals; they check the
closed forms and no rate calls them.

Evaluation strategy for Li_n(e^-theta):
  * z <= 0.92: the defining series sum z^j / j^n with the standard tail
    bound z^(J+1) / ((1-z) J^n) deciding truncation.
  * z > 0.92 (theta < 0.0834): the expansion around z = 1,
        Li_n(e^-t) = sum_{j >= 0, j != n-1} zeta(n-j) (-t)^j / j!
                     + (-t)^(n-1)/(n-1)! (H_{n-1} - log t),
    whose terms decay like (t / 2 pi)^j, so 26 terms reach full double
    precision.  Zeta at non-positive integers comes from a fixed table
    (odd negatives from Bernoulli numbers, even negatives vanish).

zeta(2) to zeta(9) are a table of the correctly rounded doubles, the same
bits scipy.special.zeta returns.  From n = 10 on, zeta(n) sums the
defining series smallest term first, with the tail beyond the last term
below 2^-54; that is within an ulp of the true value (exact against
scipy.special.zeta for n = 10..59).
"""
from __future__ import annotations

import math

from .errors import DomainError
from .numerics import QuadratureSpec, integrate_adaptive

__all__ = [
    "zeta",
    "polylog",
    "beliaev_I",
    "beliaev_I_quadrature",
    "landau_Gk",
    "landau_Gk_quadrature",
]

# zeta(2) .. zeta(9), correctly rounded
_ZETA_SMALL = {
    2: 1.6449340668482264,
    3: 1.2020569031595942,
    4: 1.0823232337111381,
    5: 1.03692775514337,
    6: 1.0173430619844492,
    7: 1.008349277381923,
    8: 1.0040773561979444,
    9: 1.0020083928260821,
}

# zeta at zero and negative odd integers, -B_{2m}/(2m) exactly
_ZETA_NEGATIVE = {
    0: -0.5,
    -1: -1.0 / 12.0,
    -3: 1.0 / 120.0,
    -5: -1.0 / 252.0,
    -7: 1.0 / 240.0,
    -9: -1.0 / 132.0,
    -11: 691.0 / 32760.0,
    -13: -1.0 / 12.0,
    -15: 3617.0 / 8160.0,
    -17: -43867.0 / 14364.0,
    -19: 174611.0 / 6600.0,
    -21: -854513.0 / 3036.0,
    -23: 236364091.0 / 65520.0,
}


def zeta(n: int) -> float:
    """Riemann zeta at an integer argument n >= 2."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"zeta wants an integer n >= 2, got {n!r}")
    if n in _ZETA_SMALL:
        return _ZETA_SMALL[n]
    # the terms beyond j_max sum to less than j_max^(1-n) / (n-1) < 2^-54
    j_max = math.ceil(2.0 ** (60.0 / n))
    acc = 0.0
    for j in range(j_max, 1, -1):
        acc += float(j) ** -n
    return 1.0 + acc


def _zeta_any(m: int) -> float:
    if m >= 2:
        return zeta(m)
    if m == 1:
        raise DomainError("zeta pole at 1")
    if m % 2 == 0 and m < 0:
        return 0.0
    return _ZETA_NEGATIVE[m]


_SERIES_Z_MAX = 0.92


def _check_theta(theta):
    theta = float(theta)
    if not math.isfinite(theta) or theta < 0:
        raise DomainError(f"theta must be finite and >= 0, got {theta}")
    return theta


def _check_moment(k):
    if not isinstance(k, int) or isinstance(k, bool) or k not in (2, 3, 4):
        raise DomainError(f"moment index must be 2, 3 or 4, got {k!r}")


def polylog(n: int, z: float) -> float:
    """Li_n(z) for integer order n in [2, 8] and real z in [0, 1]."""
    if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= 8:
        raise DomainError(f"polylog order must be an integer in [2, 8], got {n!r}")
    z = float(z)
    if not (0.0 <= z <= 1.0):
        raise DomainError(f"polylog argument must lie in [0, 1], got {z}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return zeta(n)

    if z <= _SERIES_Z_MAX:
        acc = z
        zj = z
        j = 1
        while True:
            j += 1
            zj *= z
            acc += zj / float(j) ** n
            # remaining tail is below z^(j+1) / ((1-z) j^n)
            if zj * z / ((1.0 - z) * float(j) ** n) <= 5e-16 * acc:
                return acc

    t = -math.log(z)
    return _zeta_any(n) - _zeta_minus_polylog(n, t)


def _zeta_minus_polylog(n: int, t: float) -> float:
    """zeta(n) - Li_n(e^-t) by the z = 1 expansion, for small t > 0.

    Returning the difference directly keeps full accuracy where the two
    values nearly coincide; the j = 0 term of the expansion cancels
    zeta(n) exactly.
    """
    h = sum(1.0 / i for i in range(1, n))
    acc = -((-t) ** (n - 1) / math.factorial(n - 1)) * (h - math.log(t))
    mt = 1.0
    for j in range(1, 27):
        mt *= -t / j
        if j == n - 1:
            continue
        acc -= _zeta_any(n - j) * mt
    return acc


# ---------------------------------------------------------------------------
# Beliaev kernel

_I_SERIES_CUT = 0.6


def beliaev_I_quadrature(theta: float, spec: QuadratureSpec | None = None) -> float:
    """I(theta) from its defining integral over the energy split variable.

    I(theta) = theta (1 - e^-theta) * integral over t in (-1, 1) of
    (1 - t^2)^2 / ((1 - e^(-theta(1+t)/2)) (1 - e^(-theta(1-t)/2))).
    The integrand endpoints are removable against the (1 - t^2)^2 factor
    and never get evaluated by the open quadrature rule.
    """
    theta = _check_theta(theta)
    if theta == 0.0:
        return 16.0 / 3.0
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)

    def f(t):
        da = -math.expm1(-theta * (1.0 + t) / 2.0)
        db = -math.expm1(-theta * (1.0 - t) / 2.0)
        u = 1.0 - t * t
        return u * u / (da * db)

    res = integrate_adaptive(f, -1.0, 1.0, spec)
    return theta * (-math.expm1(-theta)) * res.value


def beliaev_I(theta: float) -> float:
    """I(theta) by its polylogarithm closed form.

    I = 32 theta [ 1/30 + 4 (z3 - Li3)/theta^3 - 24 (z4 + Li4)/theta^4
                   + 48 (z5 - Li5)/theta^5 ],  all Li at e^-theta.
    Below theta = 0.6 the bracket loses about eight digits to
    cancellation, so the exact re-expansion
        I = 16/3 + 4 theta^2/45 - theta^4/1890 + theta^6/170100
            - theta^8/12474000 + O(theta^10)
    is used instead; it agrees with the bracket to better than 1e-11 at
    the crossover and is exact in the limit.  The limits I(0) = 16/3 and
    I -> 16 theta / 15 pin the overall normalisation; a closed form
    carrying a stray overall factor (1 - e^-theta) fails the first one.
    Within 1.5e-15 of a 40 digit integral up to theta = 0.3 and 2e-12 on
    (0.3, 0.7); monotone increasing from 16/3 towards 16/15 theta.
    """
    theta = _check_theta(theta)
    if theta < _I_SERIES_CUT:
        t2 = theta * theta
        return (16.0 / 3.0 + t2 * (4.0 / 45.0 + t2 * (-1.0 / 1890.0
                + t2 * (1.0 / 170100.0 - t2 / 12474000.0))))
    z = math.exp(-theta)
    t3, t4, t5 = theta ** 3, theta ** 4, theta ** 5
    bracket = (1.0 / 30.0
               + 4.0 * (zeta(3) - polylog(3, z)) / t3
               - 24.0 * (zeta(4) + polylog(4, z)) / t4
               + 48.0 * (zeta(5) - polylog(5, z)) / t5)
    return 32.0 * theta * bracket


# ---------------------------------------------------------------------------
# Landau moment kernels


def landau_Gk(k: int, theta: float) -> float:
    """G_k(theta) = 2 k! (zeta(k+1) - Li_{k+1}(e^-theta)) for k in {2, 3, 4}.

    Monotone increasing from G_k(0) = 0 with initial slope 2 k! zeta(k)
    and saturation value 2 k! zeta(k+1).  The difference is evaluated
    directly from the z = 1 expansion at small theta, so the small slope
    region keeps full relative accuracy.
    """
    _check_moment(k)
    theta = _check_theta(theta)
    if theta == 0.0:
        return 0.0
    n = k + 1
    z = math.exp(-theta)
    if z > _SERIES_Z_MAX:
        diff = _zeta_minus_polylog(n, theta)
    else:
        diff = zeta(n) - polylog(n, z)
    return 2.0 * math.factorial(k) * diff


def landau_Gk_quadrature(k: int, theta: float,
                         spec: QuadratureSpec | None = None) -> float:
    """G_k(theta) from its defining integral with the sinh kernel.

    G_k = integral over t in (0, inf) of
    sinh(theta/2) t^k / (sinh(t/2) sinh((t + theta)/2)), evaluated here in
    the overflow free form 2 (1-e^-theta) t^k e^-t /
    ((1-e^-t)(1-e^-t-theta)).
    """
    _check_moment(k)
    theta = _check_theta(theta)
    if theta == 0.0:
        return 0.0
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0,
                              tail_scale=float(k + 1))
    pref = -math.expm1(-theta)

    def f(t):
        d1 = -math.expm1(-t)
        d2 = -math.expm1(-t - theta)
        return 2.0 * pref * t ** k * math.exp(-t) / (d1 * d2)

    res = integrate_adaptive(f, 0.0, math.inf, spec)
    return res.value
