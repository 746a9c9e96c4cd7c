"""Shared 1d numerics: adaptive quadrature and its tail map.

integrate_adaptive is a port of QUADPACK's dqagse (Piessens, de
Doncker-Kapenga, Ueberhuber and Kahaner, 1983): the 21 point
Gauss-Kronrod rule dqk21 with its error rescaling, bisection of the
interval with the largest error kept in order by dqpsrt, the roundoff
counters, and Wynn's epsilon algorithm dqelg extrapolating the sequence
of bisection sums.  Every operation is done in the order of the Fortran
source, so the value and the error estimate are bit for bit those of
scipy.integrate.quad on the same integrand.  The rule has interior nodes
only, so integrands with removable endpoint behaviour are never evaluated
exactly at an endpoint.

Semi-infinite integrals are folded onto (0, 1) by the rational map
t = a + c*s/(1-s) before the adaptive pass; it handles power law and
exponential tails alike once c roughly matches the decay scale.

A result is "ok" exactly when dqagse returns ier = 0: the error estimate
meets the requested tolerance with no subdivision budget exhausted,
roundoff, extrapolation trouble, bad integrand behaviour or divergence
detected.  Error estimates are conservative in the usual sense:
trustworthy as an upper bound most of the time, and never off by much
more than an order of magnitude on sane integrands.
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
_OFLOW = sys.float_info.max           # d1mach(2)
# dqagse refuses pure relative control below this tolerance (its ier = 6)
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

    Returns (value, error, ok).  ok is False when dqagse flags trouble:
    the subdivision budget ran out, roundoff blocked the requested
    tolerance, or the integrand looked singular or divergent; the value
    and the error estimate are still the best available.
    ok=True does not certify the value at a slowly converging endpoint
    singularity, where the extrapolation can settle on a wrong limit
    with a small error: 1/(x (1 - ln x)^1.5) on (0, 1) returns
    1.955 +- 1.4e-6 against the exact 2.
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
    if hi < lo:
        value, error, ier = _qagse(target, hi, lo, spec.abs_tol, spec.rel_tol,
                                   spec.max_subdivisions)
        return QuadResult(-value, error, ier == 0)
    value, error, ier = _qagse(target, lo, hi, spec.abs_tol, spec.rel_tol,
                               spec.max_subdivisions)
    return QuadResult(value, error, ier == 0)


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


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord descending in elist; return (maxerr, errmax, nrmax).

    Indices are 1-based as in the Fortran; only the leading part of iord
    that can still be bisected within the budget is kept in order.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # subdivision increased the error estimate: move maxerr up
        while nrmax > 1:
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(nrmax + 1, jbnd + 1):
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
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


class _Epsilon:
    """dqelg: Wynn's epsilon table over the sequence of bisection sums.

    epstab is 1-based and holds up to 52 entries (the last two are
    scratch); n is its current length and res3la the last three results,
    from which the error of an extrapolated value is estimated.
    """

    _LIMEXP = 50

    def __init__(self, first, second):
        self.epstab = [0.0] * 53
        self.epstab[1] = first
        self.epstab[2] = second
        self.n = 2
        self.res3la = [0.0] * 4
        self.nres = 0

    def append(self, value):
        """Add one sum; return (extrapolated result, its error estimate)."""
        epstab = self.epstab
        self.n = n = self.n + 1
        self.nres += 1
        abserr = _OFLOW
        result = value
        epstab[n + 2] = value
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                return res, max(err2 + err3, 5.0 * _EPMACH * abs(res))
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements or an irregular table: cut the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # shift the table
        if n == self._LIMEXP:
            n = 2 * (self._LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        self.n = n
        res3la = self.res3la
        if self.nres < 4:
            res3la[self.nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
        return result, max(abserr, 5.0 * _EPMACH * abs(result))


def _qagse(f, a, b, epsabs, epsrel, limit):
    """dqagse on a < b: (result, abserr, ier), ier = 0 on success.

    The interval lists are 1-based as in the Fortran, so the control flow
    and its index arithmetic read line by line against the source.
    """
    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    # entry 0 is unused; each bisection appends entry `last`
    alist = [0.0, a]
    blist = [0.0, b]
    rlist = [0.0, result]
    elist = [0.0, abserr]
    iord = [0, 1]
    table = None
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    last = 1
    sum_lists = False           # dqagse's exit through label 115
    for last in range(2, limit + 1):
        alist.append(0.0)
        blist.append(0.0)
        rlist.append(0.0)
        elist.append(0.0)
        iord.append(0)
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if (not abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    and not erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, budget and bad integrand behaviour flags
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if (max(abs(a1), abs(b2))
                <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
            ier = 4
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
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord,
                                       nrmax)
        if errsum <= errbnd:
            sum_lists = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            table = _Epsilon(result, area)
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before
            # extrapolating, bisect the larger intervals with large errors
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger_left = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger_left = True
                    break
                nrmax += 1
            if larger_left:
                continue
        # perform extrapolation
        reseps, abseps = table.append(area)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if table.n == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not sum_lists:
        # set the final result and error estimate
        if abserr == _OFLOW:
            sum_lists = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    sum_lists = True
            elif abserr > errsum:
                sum_lists = True
            elif area == 0.0:
                return result, abserr, (ier - 1 if ier > 2 else ier)
    if sum_lists:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # test on divergence; IEEE division makes a zero area divergent
        # unless result and errsum are zero too
        if area == 0.0:
            if result != 0.0 or errsum > 0.0:
                ier = 6
        elif (0.01 > result / area or result / area > 100.0
                or errsum > abs(area)):
            ier = 6
    return result, abserr, (ier - 1 if ier > 2 else ier)
