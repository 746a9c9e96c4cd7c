"""End to end verification battery, one test per advertised property.

Run with pytest -v to get a single pass or fail line per check.  The
battery pits independent routes against each other at stated tolerances:
closed special function forms against direct quadrature of their defining
integrals, asymptotic damping laws against the reduced quadrature, the
quadrature against a Monte Carlo sampler with a mollified constraint, and
the algebraic identities behind the reduction against brute evaluation.

Two checks pin the second order residuals of closed-form laws.  The hot
Beliaev law k^4/(beta nu) is the full law with I(theta) replaced by its
limit 16/3, so its residual is theta^2/60 (from I = 16/3 + 4 theta^2/45
+ ...), with no first order term.  The full Landau moment bracket is the
leading thermal order; its defect falls like (beta nu)^-2 and is within
one percent from beta nu of about 65 on.
"""
import math

import numpy as np
import pytest

from bogodamp.bogoliubov import bogo_coeffs, first_branch, occupation_rho, omega_bg
from bogodamp.damping import (flat_highT_kernel_integral,
                              gamma_beliaev_asymptotic,
                              gamma_beliaev_quadrature,
                              gamma_landau_asymptotic, gamma_landau_quadrature,
                              mc_oracle, reduce_delta_generic)
from bogodamp.params import make_params
from bogodamp.potential import FlatCutoffPotential, GaussianPotential
from bogodamp.specfun import (beliaev_I, beliaev_I_quadrature, landau_Gk,
                              landau_Gk_quadrature)
from bogodamp.vertices import (G_of, eff_U, eff_V, regularized_F, vertex_j,
                               vertex_kappa)
from conftest import gaussian_setup, maxon_roton_table


def _rel(a, b):
    return abs(a - b) / abs(b)


def _beliaev_dev(beta_nu, x, regime):
    params, model = gaussian_setup(beta_nu=beta_nu)
    quad = gamma_beliaev_quadrature(params, model, x).value
    law = gamma_beliaev_asymptotic(params, model, x, regime)
    return _rel(quad, law)


def _landau_dev(beta_nu, x, regime):
    params, model = gaussian_setup(beta_nu=beta_nu)
    quad = gamma_landau_quadrature(params, model, x).value
    law = gamma_landau_asymptotic(params, model, x, regime)
    return _rel(quad, law)


def test_01_decay_kernel_closed_form_vs_quadrature():
    for th in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0):
        q = beliaev_I_quadrature(th)
        assert _rel(beliaev_I(th), q) <= 1e-8
    assert abs(beliaev_I(1e-3) - 16.0 / 3.0) <= 0.02
    assert abs(beliaev_I(100.0) * 15.0 / (16.0 * 100.0) - 1.0) <= 1e-3


def test_02_absorption_moments_closed_form_vs_quadrature():
    for k in (2, 3, 4):
        for th in (0.01, 0.1, 1.0, 10.0, 50.0):
            q = landau_Gk_quadrature(k, th)
            assert _rel(landau_Gk(k, th), q) <= 1e-8


def test_03_beliaev_cold_law():
    # fifth power law at beta nu = 2000, anchored at k/sqrt(nu) = 0.05
    assert _beliaev_dev(2000.0, 0.05, "low_T") <= 0.02
    # the residual is second order in k; halving k divides it by about 4
    d2 = _beliaev_dev(2000.0, 0.2, "low_T")
    d1 = _beliaev_dev(2000.0, 0.1, "low_T")
    assert 2.8 <= d2 / d1 <= 5.2


def test_04_beliaev_hot_law_first_order_claim():
    # at beta nu = 100 the residual of the k^4/(beta nu) law is second
    # order in theta = beta omega(k): the full law is the high_T law times
    # 3 I(theta)/16 and I = 16/3 + 4 theta^2/45 + O(theta^4), so the
    # residual is theta^2/60 + O(theta^4).  A first order term would show
    # as a halving ratio of about 2; halving theta must quarter it.
    bn = 100.0
    params, model = gaussian_setup(beta_nu=bn)
    gs = (0.1, 0.05, 0.025)
    devs, lead = [], []
    for g in gs:
        x = g / bn
        devs.append(_beliaev_dev(bn, x, "high_T"))
        theta = params.beta * omega_bg(params, model, x)
        lead.append(theta * theta / 60.0)
    r1, r2 = devs[0] / devs[1], devs[1] / devs[2]
    assert 2.8 <= r1 <= 5.2 and 2.8 <= r2 <= 5.2, (
        f"halving beta*sqrt(nu)*k does not quarter the residual: deviations "
        f"{devs[0]:.4e}, {devs[1]:.4e}, {devs[2]:.4e} at beta*sqrt(nu)*k = "
        f"0.1, 0.05, 0.025 give ratios {r1:.3f}, {r2:.3f} (measured 3.999, "
        f"4.011)")
    for g, d, t2 in zip(gs, devs, lead):
        assert abs(d / t2 - 1.0) <= 0.02, (
            f"residual {d:.4e} at beta*sqrt(nu)*k = {g} is not theta^2/60 = "
            f"{t2:.4e} to 2% (measured 1.6636e-4, 4.1597e-5, 1.0372e-5 "
            f"against 1.6667e-4, 4.1667e-5, 1.0417e-5)")


def test_05_landau_moment_law_percent_level():
    # the thermal moment bracket reproduces the quadrature up to a second
    # order defect in 1/(beta nu): (beta nu)^2 times the residual is about
    # 41-43 for beta nu = 50 to 400 at k/sqrt(nu) = 1e-3, so each doubling
    # of beta nu divides the residual by about 4 (measured 3.93 and 3.98)
    # and the one percent bound is met from beta nu of about 65 on.
    d50 = _landau_dev(50.0, 1e-3, "full")
    d100 = _landau_dev(100.0, 1e-3, "full")
    d200 = _landau_dev(200.0, 1e-3, "full")
    r1, r2 = d50 / d100, d100 / d200
    assert 2.8 <= r1 <= 5.2 and 2.8 <= r2 <= 5.2, (
        f"defect is not second order in 1/(beta nu): residuals {d50:.4e}, "
        f"{d100:.4e}, {d200:.4e} at beta nu = 50, 100, 200 give ratios "
        f"{r1:.3f}, {r2:.3f} (measured 1.65e-2, 4.21e-3, 1.06e-3; "
        f"ratios 3.93, 3.98)")
    assert d100 <= 0.01, (
        f"residual at beta nu = 100, k/sqrt(nu) = 1e-3 is {d100:.4e}, above "
        f"the one percent bound (measured 4.21e-3)")


def test_06_landau_regime_laws_convergence_order():
    # hot side: residual of the linear-in-k law is second order in
    # 1/(beta nu) at fixed beta sqrt(nu) k
    h1 = _landau_dev(50.0, 0.05 / 50.0, "high_T_ratio")
    h2 = _landau_dev(100.0, 0.05 / 100.0, "high_T_ratio")
    assert 2.8 <= h1 / h2 <= 5.2
    # cold side: residual of the k^2 law is first order in 1/(beta sqrt(nu) k)
    l1 = _landau_dev(400.0, 20.0 / 400.0, "low_T_ratio")
    l2 = _landau_dev(400.0, 40.0 / 400.0, "low_T_ratio")
    assert 1.4 <= l1 / l2 <= 2.6


def test_07_flat_profile_kernel_integral():
    assert abs(flat_highT_kernel_integral() - 3.0 * math.pi / 8.0) <= 1e-6


def test_08_monte_carlo_oracle_agreement():
    params, model = gaussian_setup(beta_nu=10.0)
    k = 0.3
    for proc, fn in (("beliaev", gamma_beliaev_quadrature),
                     ("landau", gamma_landau_quadrature)):
        est, err = mc_oracle(params, model, k, proc, n_samples=10 ** 7,
                             seed=1234)
        ref = fn(params, model, k).value
        assert abs(est - ref) <= 3.0 * err, (
            f"{proc}: mc {est!r} vs quadrature {ref!r}, stderr {err!r}")
        assert err <= 0.02 * ref


def test_09_algebraic_identity_suite():
    rng = np.random.default_rng(1905)
    gauss = gaussian_setup(beta_nu=10.0)
    flat_m = FlatCutoffPotential(v0=1.0, Lambda=float("inf"))
    flat = (make_params(nu=1.0, beta=10.0, vhat0=1.0), flat_m)
    tab_m = maxon_roton_table()
    tab = (make_params(nu=1.0, beta=10.0, vhat0=tab_m.vhat0), tab_m)
    for (params, model), w_top in ((gauss, 5.0), (flat, 5.0), (tab, 1.0)):
        k_top = 2.0 if model.kind == "tabulated" else 6.0
        beta = params.beta
        for _ in range(100):
            k, p, q = rng.uniform(0.05, k_top, size=3)
            s, c = bogo_coeffs(params, model, k)
            assert abs(c * c - s * s - 1.0) <= 1e-12

            assert _rel(vertex_j(params, model, k, p, q),
                        vertex_j(params, model, k, q, p)) <= 1e-12

            kap = vertex_kappa(params, model, k, p, q)
            for perm in ((k, q, p), (p, k, q), (p, q, k), (q, k, p), (q, p, k)):
                assert _rel(vertex_kappa(params, model, *perm), kap) <= 1e-12

            pv, qv = rng.normal(size=(2, 3))
            pv *= p / np.linalg.norm(pv)
            qv *= q / np.linalg.norm(qv)
            lhs = eff_V(params, model, pv, qv) + eff_V(params, model, qv, pv)
            rhs = vertex_j(params, model, float(np.linalg.norm(pv + qv)), p, q)
            assert _rel(lhs, rhs) <= 1e-12

            kv = pv * (k / p)
            qv2 = kv - qv
            usum = (eff_U(params, model, kv, -qv) + eff_U(params, model, -qv, kv)
                    + eff_U(params, model, qv, qv2) + eff_U(params, model, -qv2, kv)
                    + eff_U(params, model, kv, -qv2) + eff_U(params, model, qv2, qv))
            kap2 = vertex_kappa(params, model, k, q, float(np.linalg.norm(qv2)))
            assert _rel(usum, kap2) <= 1e-12

            ea, eb, ec = rng.uniform(0.01, 3.0, size=3)
            ra = occupation_rho(params, ea)
            rb = occupation_rho(params, eb)
            rc = occupation_rho(params, ec)
            lhs1 = (math.sqrt((1 + ra) * (1 + rb) * (1 + rc))
                    - math.sqrt(ra * rb * rc)) ** 2
            rhs1 = ra * rb * rc * math.expm1(beta * (ea + eb + ec) / 2.0) ** 2
            assert _rel(lhs1, rhs1) <= 1e-12
            lhs2 = (math.sqrt((1 + rc) * (1 + rb) * ra)
                    - math.sqrt((1 + ra) * rc * rb)) ** 2
            rhs2 = ra * rb * rc * (math.exp(beta * ea / 2.0)
                                   - math.exp(beta * (eb + ec) / 2.0)) ** 2
            assert _rel(lhs2, rhs2) <= 1e-12

            w = float(rng.uniform(0.05, w_top))
            u = float(rng.uniform(0.0, w))
            assert abs(regularized_F(params, model, w, w, 0.0)) <= 1e-12
            assert abs(regularized_F(params, model, w, 0.0, w)) <= 1e-12
            assert (regularized_F(params, model, w, u, w - u)
                    == regularized_F(params, model, w, w - u, u))


def test_10_reduction_paths_agree():
    points = [(5.0, 0.4), (10.0, 0.3), (10.0, 0.15), (20.0, 0.2), (25.0, 0.25),
              (50.0, 0.05), (100.0, 0.1), (100.0, 0.05), (200.0, 0.04),
              (400.0, 0.02)]
    for bn, x in points:
        params, model = gaussian_setup(beta_nu=bn)
        for proc, fn in (("beliaev", gamma_beliaev_quadrature),
                         ("landau", gamma_landau_quadrature)):
            a = fn(params, model, x).value
            b = reduce_delta_generic(params, model, x, proc).value
            assert _rel(a, b) <= 1e-6, (bn, x, proc)


def test_11_on_shell_vertex_expansion_order():
    params, model = gaussian_setup(beta_nu=10.0)
    nu = params.nu
    for u0, w0 in ((1.0, 1.0), (1.0, 2.0), (3.0, 1.0)):
        u, w = u0 * 1e-2 * nu, w0 * 1e-2 * nu
        devs = []
        for lam in (1.0, 0.5, 0.25):
            lead = 9.0 / nu * (lam ** 3 * u * w * (u + w)) ** 2
            devs.append(abs(G_of(params, model, lam * u, lam * w) / lead - 1.0))
        assert 2.8 <= devs[0] / devs[1] <= 5.2
        assert 2.8 <= devs[1] / devs[2] <= 5.2


def test_12_absorption_to_decay_ratio_slope():
    params, model = gaussian_setup(beta_nu=400.0)
    gs = np.array([4.0, 8.0, 16.0])
    ratios = []
    for g in gs:
        x = float(g) / 400.0
        ratios.append(gamma_landau_quadrature(params, model, x).value
                      / gamma_beliaev_quadrature(params, model, x).value)
    slope = np.polyfit(np.log(gs), np.log(ratios), 1)[0]
    assert -3.3 <= slope <= -2.7, f"log-log slope {slope:.3f}"
