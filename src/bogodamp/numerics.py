"""Shared 1d numerics: adaptive quadrature and its tail map.

integrate_adaptive is a port of QUADPACK's dqage with key 2 (Piessens, de
Doncker-Kapenga, Ueberhuber and Kahaner, 1983): the 21 point
Gauss-Kronrod rule dqk21 with its error rescaling, bisection of the
interval with the largest error kept in order by dqpsrt, and the roundoff
counters.  There is no extrapolation: the result is the sum over the
final intervals.  Every operation is done in the order of the Fortran
source.  scipy.integrate.quad runs dqagse, which bisects the same way
until its Wynn-epsilon extrapolation starts, so the two agree bit for
bit on integrals that dqagse finishes before extrapolating; every golden
and README-sweep rate is one.  The rule has interior nodes only, so
integrands with removable endpoint behaviour are never evaluated exactly
at an endpoint.

Semi-infinite integrals are folded onto (0, 1) by the rational map
t = a + c*s/(1-s) before the adaptive pass; it handles power law and
exponential tails alike once c roughly matches the decay scale.

A result is "ok" exactly when dqage returns ier = 0: the summed error
estimate meets the requested tolerance before the subdivision budget
runs out, with no roundoff or bad integrand behaviour detected.  Error
estimates are conservative in the usual sense: trustworthy as an upper
bound most of the time, and never off by much more than an order of
magnitude on sane integrands.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import IntegrandError, ParameterError

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "integrate_adaptive",
]

_EPMACH = sys.float_info.epsilon      # d1mach(4)
_UFLOW = sys.float_info.min           # d1mach(1)
# dqage refuses pure relative control below this tolerance (its ier = 6)
_MIN_REL_TOL = max(50.0 * _EPMACH, 0.5e-28)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one adaptive integration.

    abs_tol = 0 with rel_tol > 0 asks for pure relative control, which
    needs rel_tol >= 50 machine epsilons.  tail_scale sets the decay
    scale `c` of the tail map, used when the upper limit is infinite.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 0.0
    max_subdivisions: int = 2000
    tail_scale: float = 1.0

    def __post_init__(self):
        if not (self.rel_tol >= 0 and self.abs_tol >= 0):
            raise ParameterError("tolerances must be >= 0")
        if self.rel_tol == 0 and self.abs_tol == 0:
            raise ParameterError("need rel_tol > 0 or abs_tol > 0")
        if self.abs_tol == 0 and self.rel_tol < _MIN_REL_TOL:
            raise ParameterError(
                f"with abs_tol = 0, rel_tol must be >= {_MIN_REL_TOL:.3g}, "
                f"got {self.rel_tol}")
        if self.max_subdivisions < 10:
            raise ParameterError(
                f"max_subdivisions must be >= 10, got {self.max_subdivisions}")
        if not (math.isfinite(self.tail_scale) and self.tail_scale > 0):
            raise ParameterError("tail_scale must be positive and finite")


class QuadResult(NamedTuple):
    value: float
    error: float
    ok: bool


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate f from a to b, b = +inf allowed.

    Returns (value, error, ok).  ok is False when dqage flags trouble:
    the subdivision budget ran out, roundoff blocked the requested
    tolerance, or the integrand looked singular at a point; the value
    and the error estimate are still the best available.  Without
    extrapolation a slowly converging endpoint singularity spends the
    budget rather than settle on a wrong limit: 1/(x (1 - ln x)^1.5) on
    (0, 1) at rel_tol 1e-6 returns ok=False.  ok=True rests on the
    rule's own error estimate, which does not see noise in the
    integrand's values.
    Non-finite integrand values raise IntegrandError with the location.
    A lower limit above a finite upper one integrates over (b, a) and
    flips the sign, as scipy.integrate.quad does.
    """
    if spec is None:
        spec = QuadratureSpec()
    a = float(a)
    b = float(b)
    if not math.isfinite(a):
        raise ParameterError(f"lower limit must be finite, got {a}")
    if math.isnan(b) or b == -math.inf:
        raise ParameterError(f"upper limit must be finite or +inf, got {b}")

    def checked(x):
        y = f(x)
        if not math.isfinite(y):
            raise IntegrandError(f"integrand returned {y!r} at x = {x!r}")
        return y

    if math.isinf(b):
        c = spec.tail_scale

        def folded(s):
            onems = 1.0 - s
            return checked(a + c * s / onems) * c / (onems * onems)
        target, lo, hi = folded, 0.0, 1.0
    else:
        target, lo, hi = checked, a, b

    if lo == hi:
        return QuadResult(0.0, 0.0, True)
    sign = 1.0
    if hi < lo:
        lo, hi, sign = hi, lo, -1.0
    value, error, ier = _qage(target, lo, hi, spec.abs_tol, spec.rel_tol,
                              spec.max_subdivisions)
    return QuadResult(sign * value, error, ier == 0)


# ---------------------------------------------------------------------------
# QUADPACK dqk21: abscissae of the 21 point Kronrod rule (xgk[1::2] are the
# 10 point Gauss abscissae), the Kronrod weights and the Gauss weights.

_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077208067445776,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# (index, abscissa, Kronrod weight, Gauss weight) of the Gauss nodes, then
# (index, abscissa, Kronrod weight) of the Kronrod-only nodes, in dqk21's
# order of evaluation
_GAUSS_NODES = tuple((j, _XGK[j], _WGK[j], _WG[j // 2]) for j in range(1, 10, 2))
_KRONROD_NODES = tuple((j, _XGK[j], _WGK[j]) for j in range(0, 10, 2))
_WGK_CENTRE = _WGK[10]


def _qk21(f, a, b):
    """(result, abserr, resabs, resasc) of the 21 point rule on (a, b).

    resabs approximates the integral of |f| and resasc that of
    |f - mean f|; abserr is the Gauss-Kronrod difference rescaled as
    QUADPACK does.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    fc = f(centr)
    resg = 0.0
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    for j, x, wk, wg in _GAUSS_NODES:
        absc = hlgth * x
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, x, wk in _KRONROD_NODES:
        absc = hlgth * x
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for wk, fval1, fval2 in zip(_WGK, fv1, fv2):
        resasc = resasc + wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord):
    """dqpsrt: keep iord descending in elist; return (maxerr, errmax).

    Indices are 1-based as in the Fortran; only the leading part of iord
    that can still be bisected within the budget is kept in order.
    dqpsrt's nrmax is fixed at 1: only dqagse's extrapolation raises it,
    so the move of maxerr up past nrmax is left out.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(2, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[1]
    return maxerr, elist[maxerr]


def _qage(f, a, b, epsabs, epsrel, limit):
    """dqage with the 21 point rule on a < b: (result, abserr, ier).

    ier is 0 on success, 1 when the subdivision budget ran out, 2 when
    roundoff blocked the requested tolerance and 3 when the integrand
    looked singular at a point of the range.  The interval lists are
    1-based as in the Fortran, so the control flow and its index
    arithmetic read line by line against the source.
    """
    # first approximation to the integral
    result, abserr, defabs, resabs = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 50.0 * _EPMACH * defabs and abserr > errbnd:
        return result, abserr, 2
    if (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 0

    # entry 0 is unused; each bisection appends entry `last`
    alist = [0.0, a]
    blist = [0.0, b]
    rlist = [0.0, result]
    elist = [0.0, abserr]
    iord = [0, 1]
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    iroff1 = iroff2 = 0
    ier = 0
    for last in range(2, limit + 1):
        alist.append(0.0)
        blist.append(0.0)
        rlist.append(0.0)
        elist.append(0.0)
        iord.append(0)
        # bisect the subinterval with the largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if (abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12)
                    and erro12 >= 0.99 * errmax):
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff2 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if errsum > errbnd:
            # roundoff, budget and bad integrand behaviour flags
            if iroff1 >= 6 or iroff2 >= 20:
                ier = 2
            if last == limit:
                ier = 1
            if (max(abs(a1), abs(b2))
                    <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
                ier = 3
        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax = _qpsrt(limit, last, maxerr, elist, iord)
        if ier != 0 or errsum <= errbnd:
            break
    # summed left to right as in the Fortran; sum() compensates from 3.12
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, ier
