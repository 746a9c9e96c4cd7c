import math

import pytest

from bogodamp.errors import ParameterError
from bogodamp.numerics import QuadratureSpec, integrate_adaptive


def test_gamma5_semi_infinite_rational_map():
    spec = QuadratureSpec(rel_tol=1e-11, tail_map="rational")
    res = integrate_adaptive(lambda t: math.exp(-t) * t ** 4, 0.0, math.inf, spec)
    assert res.ok
    assert abs(res.value / 24.0 - 1.0) < 1e-9


def test_gamma5_semi_infinite_exponential_map():
    spec = QuadratureSpec(rel_tol=1e-11, tail_map="exponential", tail_scale=1.0)
    res = integrate_adaptive(lambda t: math.exp(-t) * t ** 4, 0.0, math.inf, spec)
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
        QuadratureSpec(tail_map="unknown")
    with pytest.raises(ParameterError):
        QuadratureSpec(tail_scale=0.0)
    with pytest.raises(ParameterError):
        QuadratureSpec(max_subdivisions=5)
