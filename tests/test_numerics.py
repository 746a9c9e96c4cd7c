import math

import pytest
from scipy import integrate

from bogodamp.errors import ParameterError
from bogodamp.numerics import QuadratureSpec, integrate_adaptive


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
    with pytest.raises(ParameterError):
        QuadratureSpec(max_subdivisions=5)


def test_negative_infinite_upper_limit_rejected():
    with pytest.raises(ParameterError):
        integrate_adaptive(lambda t: math.exp(-abs(t)), 0.0, -math.inf)


def test_pure_relative_tolerance_floor():
    # dqagse refuses epsabs <= 0 with epsrel below 50 machine epsilons
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


# (integrand, a, b, spec, the integrand and limits handed to quad)
ORACLE = {
    "polynomial": (lambda t: (1.0 - t * t) ** 2, -1.0, 1.0,
                   QuadratureSpec(rel_tol=1e-13), None),
    "gamma5_rational": (_gamma5, 0.0, math.inf,
                        QuadratureSpec(rel_tol=1e-11, tail_scale=5.0),
                        (_rational_fold(_gamma5, 5.0), 0.0, 1.0)),
    "inverse_sqrt": (lambda x: x ** -0.5, 0.0, 1.0,
                     QuadratureSpec(rel_tol=1e-10), None),
    "log": (math.log, 0.0, 1.0, QuadratureSpec(rel_tol=1e-12), None),
    "log_squared_over_sqrt": (lambda x: math.log(x) ** 2 / math.sqrt(x),
                              0.0, 1.0, QuadratureSpec(rel_tol=1e-12), None),
    "reversed_limits": (lambda x: x ** -0.5 + math.cos(x), 1.0, 0.0,
                        QuadratureSpec(rel_tol=1e-10), None),
    "budget_exhausted": (lambda x: math.sin(200.0 * x), 0.0, 1.0,
                         QuadratureSpec(max_subdivisions=10), None),
    "roundoff_first_rule": (math.exp, 0.0, 1.0,
                            QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300), None),
    "roundoff_extrapolation": (math.sqrt, 0.0, 1.0,
                               QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300),
                               None),
    "divergent": (lambda x: 1.0 / x, 0.0, 1.0, QuadratureSpec(), None),
    # slow enough that the epsilon table reaches its 50 entry limit
    "extrapolation_table_full": (
        lambda x: 1.0 / (x * (1.0 - math.log(x)) ** 1.5), 0.0, 1.0,
        QuadratureSpec(rel_tol=1e-6, max_subdivisions=5000), None),
    "near_pole": (lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), 0.0, 1.0,
                  QuadratureSpec(rel_tol=1e-12), None),
    "kink": (lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0,
             QuadratureSpec(rel_tol=1e-12), None),
}


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_matches_quadpack_bit_for_bit(name):
    """Value, error estimate and node count are those of QUADPACK's dqagse
    as scipy.integrate.quad runs it, and ok means its ier == 0."""
    f, a, b, spec, folded = ORACLE[name]
    g, lo, hi = folded if folded else (f, a, b)
    calls = []

    def counted(x):
        calls.append(x)
        return g(x)

    ref = integrate.quad(counted, lo, hi, epsabs=spec.abs_tol,
                         epsrel=spec.rel_tol, limit=spec.max_subdivisions,
                         full_output=1)
    n_ref = len(calls)
    del calls[:]
    got = integrate_adaptive(f if folded else counted, a, b, spec)
    assert got.value.hex() == float(ref[0]).hex()
    assert got.error.hex() == float(ref[1]).hex()
    # quad appends a warning message exactly when ier != 0
    assert got.ok == (len(ref) == 3)
    assert ref[2]["neval"] == n_ref
    if not folded:
        assert len(calls) == n_ref

