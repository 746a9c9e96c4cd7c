import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bogodamp import bogoliubov, damping
from bogodamp.bogoliubov import (branch_table, first_branch,
                                 invert_dispersion, omega_bg)
from bogodamp.damping import (DampingResult, detect_support, flat_highT_kernel,
                              flat_highT_kernel_integral,
                              gamma_beliaev_asymptotic,
                              gamma_beliaev_quadrature,
                              gamma_landau_asymptotic, gamma_landau_flat_highT,
                              gamma_landau_quadrature, reduce_delta_generic,
                              select_regime, total_damping)
from bogodamp.errors import (DomainError, NearSingularRootError,
                             ParameterError)
from bogodamp.params import make_params
from bogodamp.potential import (FlatCutoffPotential, GaussianPotential,
                                load_tabulated)
from bogodamp.specfun import landau_Gk, zeta
from conftest import (CountingVhat, concave_table, gaussian_setup,
                      maxon_roton_table)


# --------------------------------------------------------------------------
# support detection


def _landau_cutoff(params, model, sup):
    """The thermal cutoff momentum of a single branch Landau support."""
    w_k = omega_bg(params, model, sup.k)
    u_cut = damping._landau_t_max(params.beta, w_k) / params.beta
    return invert_dispersion(sup.branches[0], u_cut)


def test_beliaev_support_convex_gaussian():
    # the whole decay interval [0, k] on one branch, one root throughout
    params, model = gaussian_setup(beta_nu=10.0)
    sup = detect_support(params, model, 0.3, "beliaev")
    assert len(sup.branches) == 1
    assert sup.segments == ((0.0, 0.3, 1),)


def test_beliaev_support_empty_on_concave_shape():
    model = concave_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    sup = detect_support(params, model, 0.1, "beliaev")
    assert sup.segments == ()


def test_landau_support_truncated():
    params, model = gaussian_setup(beta_nu=10.0)
    sup = detect_support(params, model, 0.3, "landau")
    assert len(sup.branches) == 1
    # the support ends at the cutoff momentum, where beta omega(p)
    # reaches the t budget
    assert sup.segments == ((0.0, _landau_cutoff(params, model, sup), 1),)
    assert sup.segments[0][1] > math.sqrt(params.nu)


def test_support_rejects_bad_process():
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(ParameterError):
        detect_support(params, model, 0.3, "unknown")


def _scalar_support(params, model, k, process):
    """detect_support with every grid point counted by inversion."""
    def all_doubtful(*args):
        n = len(args[-1])
        return np.zeros(n, dtype=int), np.ones(n, dtype=bool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(damping, "_grid_counts", all_doubtful)
        return detect_support(params, model, k, process)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # both routes must fail alike
        return type(exc), str(exc)


SUPPORT_MODELS = {
    "gaussian": GaussianPotential(v=0.1, nu=1.0),
    "gaussian_nonconvex": GaussianPotential(v=0.8, nu=1.0),
    "flat_cutoff": FlatCutoffPotential(v0=0.8, Lambda=1.5),
    "maxon_roton": maxon_roton_table(),
    "concave": concave_table(),
    "dip": load_tabulated(os.path.join(os.path.dirname(__file__), "data",
                                       "dip_profile.dat")),
}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(SUPPORT_MODELS)),
       log_x=st.floats(-8.0, 1.0), log_bn=st.floats(-3.0, 6.0),
       process=st.sampled_from(["beliaev", "landau"]))
def test_support_array_counts_equal_scalar_counts(name, log_x, log_bn, process):
    model = SUPPORT_MODELS[name]
    params = make_params(nu=1.0, beta=10.0 ** log_bn, vhat0=model.vhat0)
    k = 10.0 ** log_x
    assert (_outcome(detect_support, params, model, k, process)
            == _outcome(_scalar_support, params, model, k, process))


@pytest.mark.parametrize("j", [64, 200])
@pytest.mark.parametrize("edge", ["maxon", "roton", "window"])
def test_support_recounts_targets_on_a_branch_edge(edge, j):
    """k is solved so that the decay target at grid point j equals the
    energy of a stationary point, the edge of two branches, or (window)
    so that a root sits on the lower end |p - k| - slack of its window."""
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=4.0, vhat0=model.vhat0)
    up, down, _ = branch_table(params, model, 1.0)
    energy = up.omega_max if edge == "maxon" else down.omega_min

    def gap(k):
        p = float(np.linspace(0.0, k, 257)[j])
        target = omega_bg(params, model, k) - omega_bg(params, model, p)
        if edge == "window":
            return omega_bg(params, model, k - p - 1e-9 * (1.0 + p + k)) - target
        return target - energy

    k = brentq(gap, 2.0, 2.2 if edge == "window" else 2.4, xtol=1e-15)
    w_k = omega_bg(params, model, k)
    ps = np.linspace(0.0, k, 257)[1:-1]
    _, doubt = damping._grid_counts(params, model, branch_table(params, model, w_k),
                                    "beliaev", k, w_k, ps)
    assert doubt[j - 1]
    assert (detect_support(params, model, k, "beliaev")
            == _scalar_support(params, model, k, "beliaev"))


@pytest.mark.parametrize("process, most", [("beliaev", 0), ("landau", 1)])
def test_support_counts_roots_without_inverting(monkeypatch, process, most):
    """On a convex profile the grid counts take no inversion; Landau
    inverts once for the thermal cutoff momentum."""
    calls = []
    orig = bogoliubov.invert_dispersion

    def counted(branch, omega):
        calls.append(omega)
        return orig(branch, omega)

    monkeypatch.setattr(bogoliubov, "invert_dispersion", counted)
    monkeypatch.setattr(damping, "invert_dispersion", counted)
    params, model = gaussian_setup(beta_nu=50.0)
    sup = detect_support(params, model, 0.05, process)
    assert len(calls) <= most
    hi = 0.05 if process == "beliaev" else _landau_cutoff(params, model, sup)
    assert len(sup.branches) == 1
    assert sup.segments == ((0.0, hi, 1),)


def test_support_equality_ignores_branches():
    params, model = gaussian_setup(beta_nu=10.0)
    sup = detect_support(params, model, 0.3, "beliaev")
    other = dataclasses.replace(sup, branches=())
    assert other == sup
    assert hash(other) == hash(sup)
    assert dataclasses.replace(sup, segments=()) != sup


@pytest.mark.parametrize("kd", [1e-6, 0.05, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("bn", [1e-3, 10.0, 1e6])
def test_convex_beliaev_support_maps_onto_the_full_energy_range(kd, bn):
    """On a convex profile the support is [0, k] with one root on one
    branch, and the energy path's piece map sends it to [-omega, omega]
    exactly: omega(0) = 0 and 2 omega - omega = omega in floats."""
    params, model = gaussian_setup(beta_nu=bn)
    sup = detect_support(params, model, kd, "beliaev")
    assert len(sup.branches) == 1
    assert sup.segments == ((0.0, kd, 1),)
    w_k = omega_bg(params, model, kd)
    assert (2.0 * omega_bg(params, model, 0.0) - w_k,
            2.0 * omega_bg(params, model, kd) - w_k) == (-w_k, w_k)


@pytest.mark.parametrize("kd", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("rate", [gamma_beliaev_quadrature,
                                  gamma_landau_quadrature])
def test_energy_path_requests_one_branch_table(monkeypatch, rate, kd):
    """The rate evaluates on the table its support counted roots on."""
    calls = []
    orig = bogoliubov.branch_table

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(bogoliubov, "branch_table", counted)
    monkeypatch.setattr(damping, "branch_table", counted)
    res = rate(*gaussian_setup(beta_nu=10.0), kd)
    assert res.method == "energy_quadrature"
    assert len(calls) == 1


def _maxon_setup():
    model = maxon_roton_table()
    return make_params(1, 4, model.vhat0), model


@pytest.mark.parametrize("setup, k", [
    (lambda: gaussian_setup(beta_nu=10.0), 0.3),
    (_maxon_setup, 0.2),
])
@pytest.mark.parametrize("process", ["beliaev", "landau"])
def test_scan_requests_one_branch_table(monkeypatch, setup, k, process):
    """The scan resolves its roots on the table its support counted them
    on; it used to request a second table of its own."""
    calls = []
    orig = bogoliubov.branch_table

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(bogoliubov, "branch_table", counted)
    monkeypatch.setattr(damping, "branch_table", counted)
    res = reduce_delta_generic(*setup(), k, process)
    assert res.method == "generic_scan" and res.value > 0.0
    assert len(calls) == 1


# --------------------------------------------------------------------------
# quadrature basics


def test_beliaev_rate_positive_and_converged():
    params, model = gaussian_setup(beta_nu=10.0)
    res = gamma_beliaev_quadrature(params, model, 0.3)
    assert isinstance(res, DampingResult)
    assert res.method == "energy_quadrature"
    assert res.converged
    assert res.value > 0.0
    assert res.abs_error < 1e-8 * res.value


def test_landau_rate_positive_and_converged():
    params, model = gaussian_setup(beta_nu=10.0)
    res = gamma_landau_quadrature(params, model, 0.3)
    assert res.value > 0.0
    assert res.abs_error < 1e-8 * res.value


def test_beliaev_zero_on_concave_shape():
    model = concave_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    res = gamma_beliaev_quadrature(params, model, 0.1)
    assert res.value == 0.0
    assert res.method == "energy_quadrature"


def test_rates_shrink_with_k():
    params, model = gaussian_setup(beta_nu=10.0)
    b1 = gamma_beliaev_quadrature(params, model, 0.2).value
    b2 = gamma_beliaev_quadrature(params, model, 0.1).value
    assert b2 < b1
    # phonon regime scaling is steep, k^4 at this temperature
    assert b2 < 0.15 * b1


def test_rate_proportional_to_vhat0():
    # both rates scale linearly in the amplitude at fixed shape
    params, model = gaussian_setup(beta_nu=10.0)
    params2 = make_params(nu=params.nu, beta=params.beta, vhat0=3.0 * params.vhat0)
    for fn in (gamma_beliaev_quadrature, gamma_landau_quadrature):
        r1 = fn(params, model, 0.25).value
        r2 = fn(params2, model, 0.25).value
        assert r2 == pytest.approx(3.0 * r1, rel=1e-9)


def test_quadrature_rejects_bad_k():
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(DomainError):
        gamma_beliaev_quadrature(params, model, 0.0)
    with pytest.raises(DomainError):
        gamma_landau_quadrature(params, model, -1.0)


def test_tolerance_control():
    from bogodamp.numerics import QuadratureSpec
    params, model = gaussian_setup(beta_nu=10.0)
    loose = gamma_landau_quadrature(params, model, 0.3,
                                    quad=QuadratureSpec(rel_tol=1e-6))
    tight = gamma_landau_quadrature(params, model, 0.3,
                                    quad=QuadratureSpec(rel_tol=1e-11))
    assert loose.value == pytest.approx(tight.value, rel=1e-6)
    assert tight.abs_error < loose.abs_error


def test_nonnegativity_random_sample():
    rng = np.random.default_rng(23)
    params, model = gaussian_setup(beta_nu=10.0)
    for _ in range(6):
        k = float(rng.uniform(0.02, 1.5))
        assert gamma_beliaev_quadrature(params, model, k).value >= 0.0
        assert gamma_landau_quadrature(params, model, k).value >= 0.0


def test_total_damping_sums():
    params, model = gaussian_setup(beta_nu=10.0)
    rb, rl, tot = total_damping(params, model, 0.3)
    assert tot == pytest.approx(rb.value + rl.value, rel=1e-14)


# --------------------------------------------------------------------------
# generic reduction agrees with the energy path


def test_paths_agree_beliaev():
    params, model = gaussian_setup(beta_nu=100.0)
    a = gamma_beliaev_quadrature(params, model, 0.1)
    b = reduce_delta_generic(params, model, 0.1, "beliaev")
    assert b.method == "generic_scan"
    assert a.value == pytest.approx(b.value, rel=1e-6)


def test_paths_agree_landau():
    params, model = gaussian_setup(beta_nu=100.0)
    a = gamma_landau_quadrature(params, model, 0.1)
    b = reduce_delta_generic(params, model, 0.1, "landau")
    assert a.value == pytest.approx(b.value, rel=1e-6)


def test_generic_runs_on_three_branch_model():
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=4.0, vhat0=model.vhat0)
    res = reduce_delta_generic(params, model, 0.6, "landau")
    assert math.isfinite(res.value)
    assert res.value >= 0.0


def test_energy_path_falls_back_on_three_branch_model():
    # multi branch support: the driver must hand over to the generic scan
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=4.0, vhat0=model.vhat0)
    res = gamma_landau_quadrature(params, model, 0.6)
    gen = reduce_delta_generic(params, model, 0.6, "landau")
    assert res.method == "generic_scan"
    assert res.value == pytest.approx(gen.value, rel=1e-12)


def test_generic_scan_rate_bits_are_pinned():
    """Exact bits of one generic scan rate on the maxon table.

    The scan queries the profile through its scalar path and locates its
    conservation roots by the Newton inversion of the dispersion, so this
    pins both end to end.
    """
    m = maxon_roton_table()
    res = gamma_beliaev_quadrature(make_params(1, 4, m.vhat0), m, 0.2)
    assert res.method == "generic_scan"
    assert res.converged is True
    assert res.value == 2.9838577331267397e-06
    assert res.abs_error == 2.582477447526809e-15


@pytest.mark.parametrize("rate, floats", [
    (gamma_beliaev_quadrature, 1270),
    (gamma_landau_quadrature, 22538),
], ids=["beliaev", "landau"])
def test_generic_scan_profile_call_budget(rate, floats):
    """Float vhat calls of a whole scan rate on the maxon table, k = 0.2.

    Each scan node evaluates the profile once at p and once at each
    conservation root, and the coefficients at k once per rate; support
    detection and the table build count too.  A scan that evaluated
    omega(p), omega'(q) and vertex_j's three coefficients each from their
    own profile call made 2469 (decay) and 41571 (absorption) calls here;
    one that took omega(k) again after the rate entry had made 1273 and
    22543.  One that requested a branch table of its own, and took the
    absorption's tail slope through omega_bg_prime, made 1272 and 22542.
    One whose rate entry took omega(k) apart from the support made 1271
    and 22539.
    """
    m = CountingVhat(maxon_roton_table())
    res = rate(make_params(1, 4, m.vhat0), m, 0.2)
    assert res.method == "generic_scan"
    assert m.calls == {"float": floats, "array": 17}


class _VhatAtK(CountingVhat):
    """Counts the float vhat calls whose argument is exactly k."""

    def __init__(self, inner, k):
        super().__init__(inner)
        self.k = k
        self.at_k = 0

    def vhat(self, x):
        if not np.ndim(x) and x == self.k:
            self.at_k += 1
        return super().vhat(x)


@pytest.mark.parametrize("make_model, rate, at_k", [
    (lambda: GaussianPotential(v=0.1, nu=1.0), gamma_landau_quadrature, 1),
    (maxon_roton_table, gamma_beliaev_quadrature, 2),
    (maxon_roton_table, gamma_landau_quadrature, 2),
    (maxon_roton_table,
     lambda params, model, k: reduce_delta_generic(params, model, k, "landau"),
     2),
], ids=["landau_energy_path", "beliaev_scan", "landau_scan",
        "reduce_delta_generic"])
def test_rate_takes_omega_k_once(make_model, rate, at_k):
    """At beta nu = 4, k = 0.2 the energy path evaluates the profile at k
    only for omega(k) in detect_support, and the scan once more, for the
    coefficients at k.  A rate entry that took omega(k) apart from its
    support made 2 and 3 such calls."""
    m = _VhatAtK(make_model(), 0.2)
    params = make_params(1, 4, m.vhat0)
    res = rate(params, m, 0.2)
    assert res.support.segments
    assert m.at_k == at_k
    assert res.support.omega_k == omega_bg(params, m.inner, 0.2)


def test_support_carries_omega_k():
    model = maxon_roton_table()
    params = make_params(1, 4, model.vhat0)
    for process in ("beliaev", "landau"):
        for k in (0.05, 0.2, 1.3):
            sup = detect_support(params, model, k, process)
            assert sup.omega_k == omega_bg(params, model, k)
            assert dataclasses.replace(sup, omega_k=0.0) == sup


def test_support_rejects_a_non_finite_omega_k():
    """omega(k) overflows at k = 1e200; the rates raised the diagnostics'
    DomainError before detect_support took omega(k), and still do."""
    params, model = gaussian_setup(beta_nu=10.0)
    for process in ("beliaev", "landau"):
        with pytest.raises(DomainError, match="omega_k must be finite"):
            detect_support(params, model, 1e200, process)
    for rate in (gamma_beliaev_quadrature, gamma_landau_quadrature):
        with pytest.raises(DomainError, match="omega_k must be finite"):
            rate(params, model, 1e200)


def test_generic_fallback_detects_support_once(monkeypatch):
    calls = []
    orig = damping.detect_support

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(damping, "detect_support", counted)
    m = maxon_roton_table()
    params = make_params(1, 4, m.vhat0)
    for rate in (gamma_beliaev_quadrature, gamma_landau_quadrature):
        calls.clear()
        assert rate(params, m, 0.2).method == "generic_scan"
        assert len(calls) == 1


@pytest.mark.parametrize("rate", [
    gamma_beliaev_quadrature,
    lambda params, model, k: reduce_delta_generic(params, model, k, "beliaev"),
])
def test_root_on_a_stationary_point_raises(rate):
    # at k = 2.26 a decay root lands on the maxon top of the dispersion,
    # where the scan's 1/|omega'(q)| weight is singular
    m = maxon_roton_table()
    with pytest.raises(NearSingularRootError, match="stationary point"):
        rate(make_params(1, 4, m.vhat0), m, 2.26)


# --------------------------------------------------------------------------
# closed form laws


def flat_lawline(nu=1.0, beta=10.0):
    model = FlatCutoffPotential(v0=1.0, Lambda=float("inf"))
    return make_params(nu=nu, beta=beta, vhat0=1.0), model


def test_beliaev_low_T_value():
    params, model = flat_lawline()
    got = gamma_beliaev_asymptotic(params, model, 0.1, "low_T")
    assert got == pytest.approx(3e-5 / (640.0 * math.pi), rel=1e-13)
    assert got == pytest.approx(1.4921e-8, abs=5e-12)


def test_beliaev_high_T_value():
    params, model = flat_lawline(beta=2.0)
    want = 3.0 / (128.0 * math.pi) * 0.2 ** 4 / 2.0
    assert gamma_beliaev_asymptotic(params, model, 0.2, "high_T") == pytest.approx(
        want, rel=1e-13)


def test_landau_ratio_law_values():
    params, model = flat_lawline(beta=5.0)
    want_hi = 3.0 * math.pi ** 3 / 40.0 * 0.01 / 5.0 ** 4
    assert gamma_landau_asymptotic(params, model, 0.01, "high_T_ratio") == (
        pytest.approx(want_hi, rel=1e-13))
    want_lo = 9.0 * zeta(3) / (16.0 * math.pi) * 0.25 / 5.0 ** 3
    assert gamma_landau_asymptotic(params, model, 0.5, "low_T_ratio") == (
        pytest.approx(want_lo, rel=1e-13))


def test_landau_full_law_matches_bracket():
    params, model = gaussian_setup(beta_nu=50.0)
    k = 1e-3
    from bogodamp.bogoliubov import omega_bg
    theta = params.beta * omega_bg(params, model, k)
    bk = params.beta * math.sqrt(params.nu) * k
    bracket = (landau_Gk(4, theta) + 2.0 * bk * landau_Gk(3, theta)
               + bk * bk * landau_Gk(2, theta))
    want = (9.0 / (64.0 * math.pi) * params.vhat0 * params.nu ** 1.5
            * bracket / (params.beta * params.nu) ** 5)
    got = gamma_landau_asymptotic(params, model, k, "full")
    assert got == pytest.approx(want, rel=1e-13)


def test_asymptotic_zero_momentum():
    params, model = flat_lawline()
    for regime in ("full", "low_T", "high_T"):
        assert gamma_beliaev_asymptotic(params, model, 0.0, regime) == 0.0
    for regime in ("full", "high_T_ratio", "low_T_ratio"):
        assert gamma_landau_asymptotic(params, model, 0.0, regime) == 0.0


def test_asymptotic_unknown_regime():
    params, model = flat_lawline()
    with pytest.raises(ParameterError):
        gamma_beliaev_asymptotic(params, model, 0.1, "bogus")
    with pytest.raises(ParameterError):
        gamma_landau_asymptotic(params, model, 0.1, "bogus")


def test_select_regime_thresholds():
    params, model = gaussian_setup(beta_nu=10.0)   # beta sqrt(nu) = 10
    assert select_regime(params, model, 0.5, "beliaev") == "low_T"
    assert select_regime(params, model, 0.01, "beliaev") == "high_T"
    assert select_regime(params, model, 0.01, "landau") == "high_T_ratio"
    assert select_regime(params, model, 0.5, "landau") == "low_T_ratio"
    assert select_regime(params, model, 0.1, "landau") == "full"
    with pytest.raises(ParameterError):
        select_regime(params, model, 0.1, "bogus")


# --------------------------------------------------------------------------
# flat profile at high temperature


def test_flat_kernel_series_seam():
    # below the switch the series truncation costs about 5e-8 relative,
    # above it the closed expression is exact
    for z, tol in ((0.0499, 2e-7), (0.0501, 1e-12)):
        bracket = flat_highT_kernel(z)
        e = math.hypot(1.0, z)
        direct = (2.0 - 2.0 / e - 1.5 / e ** 2 + 1.0 / e ** 3
                  + 0.5 / e ** 4) / (z * z)
        assert bracket == pytest.approx(direct, rel=tol)


def test_flat_kernel_integral():
    got = flat_highT_kernel_integral()
    assert abs(got - 3.0 * math.pi / 8.0) <= 1e-6


def test_flat_highT_law_value():
    params = make_params(nu=1.0, beta=0.1, vhat0=1.0)
    assert gamma_landau_flat_highT(params, 0.01) == pytest.approx(9.375e-3,
                                                                  rel=1e-12)


def test_flat_quadrature_approaches_highT_law():
    model = FlatCutoffPotential(v0=1.0, Lambda=float("inf"))
    k = 1e-3
    devs = []
    for bn in (0.2, 0.1, 0.05):
        params = make_params(nu=1.0, beta=bn, vhat0=1.0)
        quad = gamma_landau_quadrature(params, model, k).value
        law = gamma_landau_flat_highT(params, k)
        devs.append(abs(quad / law - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.05


# --------------------------------------------------------------------------
# law versus quadrature, quick sanity versions of the slow comparisons


def test_beliaev_quadrature_near_low_T_law():
    params, model = gaussian_setup(beta_nu=500.0)
    quad = gamma_beliaev_quadrature(params, model, 0.1)
    law = gamma_beliaev_asymptotic(params, model, 0.1, "low_T")
    assert quad.value == pytest.approx(law, rel=0.03)


def test_landau_quadrature_near_full_law():
    params, model = gaussian_setup(beta_nu=25.0)
    quad = gamma_landau_quadrature(params, model, 0.005)
    law = gamma_landau_asymptotic(params, model, 0.005, "full")
    assert quad.value == pytest.approx(law, rel=0.1)


# --------------------------------------------------------------------------
# purity: a rate depends only on its arguments


@pytest.mark.parametrize("kd", [0.05, 0.3, 1.0])
def test_rates_do_not_depend_on_earlier_calls(kd):
    fresh = gaussian_setup(beta_nu=10.0)
    primed = gaussian_setup(beta_nu=10.0)
    first_branch(*primed, 50.0)
    for rate in (gamma_beliaev_quadrature, gamma_landau_quadrature):
        a = rate(*fresh, kd)
        b = rate(*primed, kd)
        assert (a.value, a.abs_error) == (b.value, b.abs_error)
