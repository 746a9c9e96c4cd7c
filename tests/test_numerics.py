import math

import pytest
from scipy import integrate

from bogodamp import numerics
from bogodamp.errors import IntegrandError, ParameterError
from bogodamp.numerics import QuadratureSpec, QuadResult, integrate_adaptive


def test_gamma5_semi_infinite_rational_map():
    spec = QuadratureSpec(rel_tol=1e-11)
    res = integrate_adaptive(lambda t: math.exp(-t) * t ** 4, 0.0, math.inf, spec)
    assert res.ok
    assert abs(res.value / 24.0 - 1.0) < 1e-9


def test_finite_polynomial():
    # antiderivative gives exactly 16/15 on [-1, 1]
    res = integrate_adaptive(lambda t: (1.0 - t * t) ** 2, -1.0, 1.0,
                             QuadratureSpec(rel_tol=1e-13))
    assert abs(res.value - 16.0 / 15.0) < 1e-12


def test_error_estimate_is_conservative():
    res = integrate_adaptive(math.sin, 0.0, math.pi, QuadratureSpec(rel_tol=1e-10))
    assert abs(res.value - 2.0) <= max(res.error, 1e-12)


def test_spec_validation():
    with pytest.raises(ParameterError):
        QuadratureSpec(rel_tol=0.0, abs_tol=0.0)
    with pytest.raises(ParameterError):
        QuadratureSpec(tail_scale=0.0)


def test_negative_infinite_upper_limit_rejected():
    with pytest.raises(ParameterError):
        integrate_adaptive(lambda t: math.exp(-abs(t)), 0.0, -math.inf)


def test_non_finite_lower_limit_rejected():
    for a in (math.nan, -math.inf, math.inf):
        with pytest.raises(ParameterError, match="lower limit"):
            integrate_adaptive(lambda t: 1.0, a, 1.0)


def test_non_finite_integrand_names_its_node():
    # the first node of the 21-point rule on [0, 1] is its centre
    with pytest.raises(IntegrandError, match=r"returned nan at x = 0\.5$"):
        integrate_adaptive(lambda t: math.nan, 0.0, 1.0)


def test_pure_relative_tolerance_floor():
    # dqage refuses epsabs <= 0 with epsrel below 50 machine epsilons
    with pytest.raises(ParameterError):
        QuadratureSpec(rel_tol=1e-15)
    QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
    QuadratureSpec(rel_tol=50.0 * 2.0 ** -52)


def _gamma5(t):
    return math.exp(-t) * t ** 4


def _rational_fold(f, c):
    def folded(s):
        onems = 1.0 - s
        return f(c * s / onems) * c / (onems * onems)
    return folded


# (integrand, a, b, spec, the integrand and limits handed to quad,
# subdivision limit): the cases that scipy's dqagse finishes before it
# extrapolates, where it bisects exactly as dqage does
ORACLE = {
    "polynomial": (lambda t: (1.0 - t * t) ** 2, -1.0, 1.0,
                   QuadratureSpec(rel_tol=1e-13), None, numerics._LIMIT),
    "gamma5_rational": (_gamma5, 0.0, math.inf,
                        QuadratureSpec(rel_tol=1e-11, tail_scale=5.0),
                        (_rational_fold(_gamma5, 5.0), 0.0, 1.0),
                        numerics._LIMIT),
    # a budget of 10 runs out; integrate_adaptive's fixed 2000 would not,
    # so this case calls dqage itself
    "budget_exhausted": (lambda x: math.sin(200.0 * x), 0.0, 1.0,
                         QuadratureSpec(), None, 10),
    "roundoff_first_rule": (math.exp, 0.0, 1.0,
                            QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300), None,
                            numerics._LIMIT),
    "divergent": (lambda x: 1.0 / x, 0.0, 1.0, QuadratureSpec(), None,
                  numerics._LIMIT),
}


def _integrate(f, a, b, spec, limit):
    """integrate_adaptive, or at another limit dqage on the finite (a, b)."""
    if limit == numerics._LIMIT:
        return integrate_adaptive(f, a, b, spec)
    value, error, ier = numerics._qage(f, a, b, spec.abs_tol, spec.rel_tol,
                                       limit)
    return QuadResult(value, error, ier == 0)


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_matches_quadpack_bit_for_bit(name):
    """Value, error estimate and node count are those of QUADPACK's dqagse
    as scipy.integrate.quad runs it, and ok means its ier == 0."""
    f, a, b, spec, folded, limit = ORACLE[name]
    g, lo, hi = folded if folded else (f, a, b)
    calls = []

    def counted(x):
        calls.append(x)
        return g(x)

    ref = integrate.quad(counted, lo, hi, epsabs=spec.abs_tol,
                         epsrel=spec.rel_tol, limit=limit, full_output=1)
    n_ref = len(calls)
    del calls[:]
    got = _integrate(f if folded else counted, a, b, spec, limit)
    assert got.value.hex() == float(ref[0]).hex()
    assert got.error.hex() == float(ref[1]).hex()
    # quad appends a warning message exactly when ier != 0
    assert got.ok == (len(ref) == 3)
    assert ref[2]["neval"] == n_ref
    if not folded:
        assert len(calls) == n_ref


# (integrand, a, b, spec, exact integral, ok): the cases on which scipy's
# dqagse extrapolates, so that it is no reference for dqage's bisection
EXACT = {
    "inverse_sqrt": (lambda x: x ** -0.5, 0.0, 1.0,
                     QuadratureSpec(rel_tol=1e-10), 2.0, True),
    "log": (math.log, 0.0, 1.0, QuadratureSpec(rel_tol=1e-12), -1.0, True),
    "log_squared_over_sqrt": (lambda x: math.log(x) ** 2 / math.sqrt(x),
                              0.0, 1.0, QuadratureSpec(rel_tol=1e-12), 16.0,
                              True),
    "reversed_limits": (lambda x: x ** -0.5 + math.cos(x), 1.0, 0.0,
                        QuadratureSpec(rel_tol=1e-10),
                        -(2.0 + math.sin(1.0)), True),
    "roundoff_extrapolation": (math.sqrt, 0.0, 1.0,
                               QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300),
                               2.0 / 3.0, False),
    # too slow for bisection alone; dqagse's epsilon table filled up and
    # settled on 1.9553 +- 1.35e-6 with ier = 0, 2.2 % below the exact 2
    "extrapolation_table_full": (
        lambda x: 1.0 / (x * (1.0 - math.log(x)) ** 1.5), 0.0, 1.0,
        QuadratureSpec(rel_tol=1e-6), 2.0, False),
    "near_pole": (lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), 0.0, 1.0,
                  QuadratureSpec(rel_tol=1e-12),
                  1e3 * (math.atan(700.0) + math.atan(300.0)), True),
    "kink": (lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0,
             QuadratureSpec(rel_tol=1e-12), 5.0 / 18.0, True),
}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_ok_value_lies_within_its_error(name):
    """Where ok is True the value lies within its error estimate of the
    exact integral; ok is pinned, so a case cannot pass by giving up."""
    f, a, b, spec, exact, ok = EXACT[name]
    got = integrate_adaptive(f, a, b, spec)
    assert got.ok == ok
    if got.ok:
        assert abs(got.value - exact) <= got.error
