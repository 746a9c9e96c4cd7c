"""Checks of the special function layer against mpmath as an outside oracle."""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from bogodamp.errors import DomainError
from bogodamp.specfun import (beliaev_I, beliaev_I_quadrature, landau_Gk,
                              landau_Gk_quadrature, polylog, zeta)

mp.mp.dps = 30


def mp_I(theta):
    """High precision evaluation of the defining integral of I."""
    th = mp.mpf(theta)

    def f(t):
        da = -mp.expm1(-th * (1 + t) / 2)
        db = -mp.expm1(-th * (1 - t) / 2)
        return (1 - t * t) ** 2 / (da * db)

    return th * (-mp.expm1(-th)) * mp.quad(f, [-1, 0, 1])


def mp_Gk(k, theta):
    th = mp.mpf(theta)

    def f(t):
        return mp.sinh(th / 2) * t ** k / (mp.sinh(t / 2) * mp.sinh((t + th) / 2))

    return mp.quad(f, [0, th + 1, mp.inf])


def test_zeta_values():
    assert zeta(2) == pytest.approx(1.6449341, abs=5e-8)
    assert zeta(2) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)
    assert zeta(3) == pytest.approx(1.2020569, abs=5e-8)
    assert zeta(4) == pytest.approx(1.0823232, abs=5e-8)
    assert zeta(4) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-14)


def test_zeta_matches_scipy():
    """The table is exactly scipy's doubles; the direct series stays
    within an ulp of them."""
    for n in range(2, 10):
        assert zeta(n).hex() == float(special.zeta(n)).hex(), n
    for n in range(10, 41):
        want = float(special.zeta(n))
        assert abs(zeta(n) - want) <= math.ulp(want), n


def test_zeta_rejects():
    with pytest.raises(DomainError):
        zeta(1)
    with pytest.raises(DomainError):
        zeta(2.0)


def test_polylog_at_one_is_zeta():
    for n in (2, 3, 4, 5):
        assert polylog(n, 1.0) == pytest.approx(zeta(n), rel=1e-14)


def test_polylog_half():
    assert polylog(3, 0.5) == pytest.approx(0.5372132, abs=5e-8)


def test_polylog_vs_mpmath():
    for n in (2, 3, 4, 5, 6):
        for z in (0.05, 0.3, 0.7, 0.91, 0.95, 0.99, 0.999):
            want = float(mp.polylog(n, mp.mpf(z)))
            assert polylog(n, z) == pytest.approx(want, rel=2e-15), (n, z)


def test_polylog_series_expansion_seam():
    # both evaluation branches live near z = 0.92; they must agree
    for z in (0.9199, 0.9201):
        want = float(mp.polylog(3, mp.mpf(z)))
        assert polylog(3, z) == pytest.approx(want, rel=1e-14)


def test_polylog_domain():
    with pytest.raises(DomainError):
        polylog(1, 0.5)
    with pytest.raises(DomainError):
        polylog(3, 1.5)
    with pytest.raises(DomainError):
        polylog(3, -0.1)


def test_I_closed_vs_quadrature_interior():
    for th in (0.5, 2.0, 10.0):
        a = beliaev_I(th)
        b = beliaev_I_quadrature(th)
        assert abs(a / b - 1.0) <= 1e-8, th


def test_I_vs_mpmath():
    for th in (0.01, 0.2, 0.6, 1.0, 5.0, 30.0):
        want = float(mp_I(th))
        assert beliaev_I(th) == pytest.approx(want, rel=1e-9), th


def test_I_zero_limit():
    assert abs(beliaev_I(1e-3) - 16.0 / 3.0) <= 0.02
    assert beliaev_I(0.0) == pytest.approx(16.0 / 3.0, rel=1e-12)


def test_I_linear_growth():
    assert abs(beliaev_I(100.0) * 15.0 / (16.0 * 100.0) - 1.0) <= 1e-3


@pytest.mark.parametrize("theta, rel", [
    (1e-8, 2e-15), (1e-4, 2e-15), (0.05, 2e-15), (0.2, 2e-15), (0.3, 2e-15),
    (0.4, 2e-12), (0.599, 2e-12), (0.61, 2e-12)])
def test_I_closed_form_vs_40_digit_mpmath(theta, rel):
    # the series below theta = 0.6 is near full precision; the polylog
    # bracket just above it keeps about twelve digits
    with mp.workdps(40):
        want = mp_I(theta)
        got = beliaev_I(theta)
        assert abs(mp.mpf(got) / want - 1) <= rel


def test_I_series_bracket_crossover():
    # the closed form switches representation at theta = 0.6
    for th in (0.5999, 0.6001):
        want = float(mp_I(th))
        assert beliaev_I(th) == pytest.approx(want, rel=1e-10)


def test_I_monotone():
    ths = np.linspace(0.0, 20.0, 101)
    vals = [beliaev_I(float(t)) for t in ths]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_I_domain():
    with pytest.raises(DomainError):
        beliaev_I(-0.1)
    with pytest.raises(DomainError):
        beliaev_I(float("nan"))


def test_Gk_closed_vs_quadrature():
    for k in (2, 3, 4):
        for th in (0.01, 0.1, 1.0, 10.0, 50.0):
            a = landau_Gk(k, th)
            b = landau_Gk_quadrature(k, th)
            assert abs(a / b - 1.0) <= 1e-8, (k, th)


def test_Gk_vs_mpmath():
    for k in (2, 3, 4):
        for th in (0.05, 0.5, 3.0):
            want = float(mp_Gk(k, th))
            assert landau_Gk(k, th) == pytest.approx(want, rel=1e-10), (k, th)


def test_G2_saturation():
    # G_2 -> 2 Gamma(3) zeta(3) = 4 zeta(3)
    assert landau_Gk(2, 60.0) == pytest.approx(4.8082276, abs=5e-7)
    assert landau_Gk(2, 60.0) == pytest.approx(4.0 * zeta(3), rel=1e-10)


def test_G4_small_slope():
    # G_4(theta)/theta -> 2 Gamma(5) zeta(4) = 48 zeta(4)
    want = 48.0 * zeta(4)
    assert want == pytest.approx(51.9515, abs=5e-5)
    r1 = landau_Gk(4, 1e-4) / 1e-4
    r2 = landau_Gk(4, 1e-6) / 1e-6
    assert r2 == pytest.approx(want, rel=1e-5)
    assert abs(r2 - want) < abs(r1 - want)


def test_Gk_zero():
    for k in (2, 3, 4):
        assert landau_Gk(k, 0.0) == 0.0


def test_Gk_monotone_in_theta():
    ths = np.linspace(0.0, 30.0, 61)
    for k in (2, 3, 4):
        vals = [landau_Gk(k, float(t)) for t in ths]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_Gk_domain():
    with pytest.raises(DomainError):
        landau_Gk(5, 1.0)
    with pytest.raises(DomainError):
        landau_Gk(2, -1.0)
