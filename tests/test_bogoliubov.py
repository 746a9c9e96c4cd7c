import bisect
import functools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogodamp import bogoliubov, damping
from bogodamp.bogoliubov import (bogo_coeffs, branch_table, detect_branches,
                                 first_branch, invert_dispersion,
                                 measure_factor_f, occupation_rho, omega_bg,
                                 omega_bg_prime)
from bogodamp.errors import (AssumptionError, DomainError, RangeError,
                             SingularMeasureError)
from bogodamp.params import make_params
from bogodamp.potential import (FlatCutoffPotential, GaussianPotential,
                                TabulatedPotential, _np_slope, load_tabulated)
from conftest import (CountingVhat, concave_table, gaussian_setup,
                      maxon_roton_table)


def flat_setup(nu=1.0, beta=10.0):
    model = FlatCutoffPotential(v0=1.0, Lambda=float("inf"))
    return make_params(nu=nu, beta=beta, vhat0=1.0), model


def test_omega_flat_point():
    params, model = flat_setup()
    assert omega_bg(params, model, 2.0) == pytest.approx(math.sqrt(8.0), rel=1e-14)


def test_omega_gaussian_point():
    model = GaussianPotential(v=0.4, nu=1.0)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    want = math.sqrt(0.25 + math.exp(-0.2))
    assert omega_bg(params, model, 1.0) == pytest.approx(want, rel=1e-14)
    assert omega_bg(params, model, 1.0) == pytest.approx(1.0337943476, abs=5e-10)


def test_omega_vectorized():
    params, model = flat_setup()
    ks = np.array([0.5, 1.0, 2.0])
    out = omega_bg(params, model, ks)
    for i, k in enumerate(ks):
        assert out[i] == pytest.approx(omega_bg(params, model, float(k)))


def test_omega_rejects_negative_k():
    params, model = flat_setup()
    with pytest.raises(DomainError):
        omega_bg(params, model, -0.5)


def test_small_k_sound_speed():
    params, model = gaussian_setup(beta_nu=10.0)
    devs = []
    for k in (1e-3, 1e-4):
        ratio = omega_bg(params, model, k) / (math.sqrt(params.nu) * k)
        devs.append(abs(ratio - 1.0))
    # quadratic approach: deviation drops 100x per decade
    assert devs[0] / devs[1] == pytest.approx(100.0, rel=0.05)


def test_omega_prime_matches_fd():
    params, model = gaussian_setup(beta_nu=10.0)
    for k in (0.05, 0.3, 1.0, 3.0):
        h = 1e-6 * max(k, 1.0)
        fd = (omega_bg(params, model, k + h) - omega_bg(params, model, k - h)) / (2 * h)
        assert omega_bg_prime(params, model, k) == pytest.approx(fd, rel=2e-8)


def test_omega_prime_zero_limit_is_sound_speed():
    params, model = gaussian_setup(beta_nu=10.0, nu=2.0)
    assert omega_bg_prime(params, model, 1e-8) == pytest.approx(math.sqrt(2.0), rel=1e-6)


def _prime_scalar_and_array(params, model, k):
    got = omega_bg_prime(params, model, k)
    assert type(got) is float
    return got, float(omega_bg_prime(params, model, np.array([k]))[0])


def _assert_scalar_is_array(params, model, k):
    """omega and its slope at a float k, bit for bit as at [k]."""
    for f in (omega_bg, omega_bg_prime):
        got = f(params, model, k)
        assert type(got) is float
        want = float(f(params, model, np.array([k]))[0])
        assert got.hex() == want.hex(), (f.__name__, k)


def _near(x):
    return [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf),
            x * (1.0 - 1e-9), x * (1.0 + 1e-9), x - 1e-6, x + 1e-6]


def test_omega_prime_scalar_bitwise_flat_cutoff():
    model = FlatCutoffPotential(v0=0.8, Lambda=1.5)
    params = make_params(nu=0.7, beta=10.0, vhat0=model.vhat0)
    points = _near(1.5) + _near(3.0) + list(np.linspace(0.01, 6.0, 200))
    for k in map(float, points):
        _assert_scalar_is_array(params, model, k)


def test_omega_prime_scalar_bitwise_maxon_stationary_points():
    model = maxon_roton_table(nu=1.3)
    params = make_params(nu=1.3, beta=4.0, vhat0=model.vhat0)
    brs = detect_branches(params, model, p_max=model.k_max)
    stationary = [b.p_hi for b in brs[:-1]]
    assert len(stationary) == 2
    points = [k for p in stationary for k in _near(p)]
    points += list(np.linspace(0.01, model.k_max, 300))
    for k in map(float, points):
        _assert_scalar_is_array(params, model, k)


@settings(max_examples=300, deadline=None)
@given(k=st.floats(1e-100, 12.0))
def test_omega_prime_scalar_gaussian(k):
    """Same arithmetic as the array path; the Gaussian profile itself is
    evaluated by math.exp for a scalar and np.exp for an array, which can
    differ in the last bits, and only then may the slopes differ."""
    params, model = gaussian_setup(beta_nu=10.0, nu=0.7)
    got, want = _prime_scalar_and_array(params, model, k)
    arr = np.array([k])
    if (model.vhat(k) == model.vhat(arr)[0]
            and model.dvhat(k) == model.dvhat(arr)[0]):
        assert got.hex() == want.hex()
    else:
        assert abs(got - want) <= 4.0 * math.ulp(want)


@pytest.mark.parametrize("k", [1e-158, 1e-170])
def test_omega_where_k_squared_underflows(k):
    """omega = k sqrt(k^2/4 + nu_k) keeps k out of the radicand, so it is
    k sqrt(nu_k) to 1e-14 where k * k is subnormal (1e-158) or 0 (1e-170)."""
    params, model = gaussian_setup(beta_nu=10.0, nu=2.0)
    want = k * math.sqrt(params.nu * model.vhat(k) / model.vhat0)
    assert omega_bg(params, model, k) == pytest.approx(want, rel=1e-14, abs=0)
    got = omega_bg(params, model, np.array([k, 1e-3]))
    assert got[0] == pytest.approx(want, rel=1e-14, abs=0)


def test_omega_prime_where_k_squared_underflows():
    """k * k is 0 at 1e-170 and subnormal, with 24 bits left, at 1e-158."""
    params, model = gaussian_setup(beta_nu=10.0, nu=2.0)
    for k in (1e-170, 1e-158):
        assert omega_bg_prime(params, model, k) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)
    got = omega_bg_prime(params, model, np.array([1e-170, 1e-158, 0.0, 1e-3]))
    assert got[:3] == pytest.approx([math.sqrt(2.0)] * 3, rel=1e-14)
    assert got[3] == omega_bg_prime(params, model, np.array([1e-3]))[0]


def test_omega_prime_scalar_limit_types_and_errors():
    params, model = gaussian_setup(beta_nu=10.0, nu=2.0)
    tab = maxon_roton_table(nu=2.0)
    for m in (model, tab):
        p = make_params(nu=2.0, beta=5.0, vhat0=m.vhat0)
        for zero in (0.0, 0, np.float64(0.0), np.array(0.0)):
            got = omega_bg_prime(p, m, zero)
            assert type(got) is float and got == math.sqrt(2.0)
        for k in (1, np.float64(0.7), np.array(0.7)):
            got = omega_bg_prime(p, m, k)
            assert type(got) is float
            assert got == omega_bg_prime(p, m, float(k))
        for bad in (-1e-3, -math.inf, math.inf, math.nan):
            with pytest.raises(DomainError):
                omega_bg_prime(p, m, bad)


def test_omega_prime_scalar_raises_on_negative_radicand():
    k = np.linspace(0.0, 4.0, 41)
    model = TabulatedPotential(k, 1.0 - 2.0 * k)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    for arg in (3.0, np.array([3.0])):
        with pytest.raises(AssumptionError, match="radicand negative"):
            omega_bg_prime(params, model, arg)


def test_coeffs_flat_point():
    # omega = sqrt(3) and sqrt(omega^2 + nu^2) = 2 give closed forms
    # s = 1/sqrt(2 sqrt(3) (2 + sqrt(3))), c = sqrt((2 + sqrt(3))/(2 sqrt(3)))
    params, model = flat_setup()
    s, c = bogo_coeffs(params, model, math.sqrt(2.0))
    assert s == pytest.approx(0.2781191637, abs=5e-10)
    assert c == pytest.approx(1.0379548493, abs=5e-10)


def test_coeffs_large_k_slimit():
    params, model = flat_setup()
    s, c = bogo_coeffs(params, model, 100.0)
    assert s <= 1e-3
    assert c == pytest.approx(1.0, abs=1e-4)


def test_coeffs_normalization_log_grid():
    params, model = gaussian_setup(beta_nu=10.0)
    for k in np.geomspace(1e-4, 1e2, 61):
        s, c = bogo_coeffs(params, model, float(k))
        assert abs(c * c - s * s - 1.0) < 1e-12


def test_energy_identity():
    # sqrt(omega^2 + nu_k^2) equals k^2/2 + nu_k exactly
    params, model = gaussian_setup(beta_nu=10.0)
    for k in (0.01, 0.4, 1.7, 6.0):
        w = omega_bg(params, model, k)
        nu_k = params.nu * model.vhat(k) / model.vhat0
        lhs = math.sqrt(w * w + nu_k * nu_k)
        assert lhs == pytest.approx(0.5 * k * k + nu_k, rel=1e-13)


def test_occupation_value():
    params, _ = flat_setup(beta=1.0)
    assert occupation_rho(params, 0.01) == pytest.approx(99.5008333, abs=5e-7)


def test_occupation_large_argument_underflows_to_zero():
    params, _ = flat_setup(beta=1.0)
    assert occupation_rho(params, 1e4) == pytest.approx(0.0, abs=1e-300)


def test_occupation_rejects_nonpositive():
    params, _ = flat_setup()
    with pytest.raises(DomainError):
        occupation_rho(params, 0.0)


def test_single_branch_flat():
    params, model = flat_setup()
    brs = detect_branches(params, model, p_max=20.0)
    assert len(brs) == 1
    assert brs[0].increasing


def test_single_branch_gaussian_point8():
    params, model = gaussian_setup(beta_nu=10.0, two_v_over_nu=0.8)
    brs = detect_branches(params, model, p_max=20.0)
    assert len(brs) == 1
    assert brs[0].increasing


def test_three_branch_table():
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    brs = detect_branches(params, model, p_max=model.k_max)
    assert [b.increasing for b in brs] == [True, False, True]
    # branch intervals tile [0, k_max]
    assert brs[0].p_lo == 0.0
    assert brs[-1].p_hi == pytest.approx(model.k_max)
    for a, b in zip(brs, brs[1:]):
        assert a.p_hi == pytest.approx(b.p_lo)


def test_invert_flat_closed_form():
    params, model = flat_setup()
    br = detect_branches(params, model, p_max=10.0)[0]
    assert invert_dispersion(br, math.sqrt(3.0)) == pytest.approx(math.sqrt(2.0),
                                                                  rel=1e-10)
    # closed form p(omega) = sqrt(-2 nu + 2 sqrt(nu^2 + omega^2))
    for w in (0.1, 1.0, 5.0):
        want = math.sqrt(-2.0 + 2.0 * math.hypot(1.0, w))
        assert invert_dispersion(br, w) == pytest.approx(want, rel=1e-10)


def test_invert_round_trip_every_branch():
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    rng = np.random.default_rng(7)
    for br in detect_branches(params, model, p_max=model.k_max):
        ps = rng.uniform(br.p_lo, br.p_hi, 40)
        for p in ps:
            w = omega_bg(params, model, float(p))
            back = invert_dispersion(br, w)
            assert abs(back - p) <= 1e-10 * max(p, 1.0)


def test_invert_out_of_range():
    params, model = flat_setup()
    br = detect_branches(params, model, p_max=2.0)[0]
    with pytest.raises(RangeError):
        invert_dispersion(br, 2.0 * br.omega_max)


INVERT_MODELS = {
    "gaussian": GaussianPotential(v=0.1, nu=1.0),
    "gaussian_nonconvex": GaussianPotential(v=0.8, nu=1.0),
    "flat_cutoff": FlatCutoffPotential(v0=0.8, Lambda=1.5),
    "maxon_roton": maxon_roton_table(),
    "concave": concave_table(),
    "dip": load_tabulated(os.path.join(os.path.dirname(__file__), "data",
                                       "dip_profile.dat")),
}


@functools.lru_cache(maxsize=None)
def _invert_branches(name):
    model = INVERT_MODELS[name]
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    return params, model, detect_branches(
        params, model, p_max=getattr(model, "k_max", 8.0))


def _assert_root(params, model, br, omega, p):
    """p on the branch, and omega(p) within a root's rounding of omega.

    A root of the rounded dispersion known to an ulp of p moves omega by
    |omega'(p)| ulp(p); the evaluation itself rounds by an ulp of omega.
    Energies past a branch edge (inside the slack) invert to the edge.
    """
    assert br.p_lo <= p <= br.p_hi
    target = min(max(omega, br.omega_min), br.omega_max)
    slope = abs(omega_bg_prime(params, model, p))
    bound = 4.0 * (math.ulp(target) + slope * math.ulp(p))
    assert abs(omega_bg(params, model, p) - target) <= bound


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(INVERT_MODELS)), j=st.integers(0, 2),
       where=st.sampled_from(["inside", "low_edge", "high_edge", "tiny"]),
       x=st.floats(0.0, 1.0), ulps=st.integers(-4, 4))
def test_invert_to_an_ulp_on_every_branch(name, j, where, x, ulps):
    """Energies anywhere inside each branch (subnormal ones included on
    the branch rising from zero), within a few ulp of its edges (the
    stationary tops and the roton minimum among them), and log-uniform
    from 1e-12 nu to 1e-3 nu on the branch rising from zero."""
    params, model, brs = _invert_branches(name)
    br = brs[j % len(brs)]
    if where == "inside":
        omega = br.omega_min + x * (br.omega_max - br.omega_min)
    elif where == "tiny":
        br = brs[0]
        omega = 10.0 ** (-12.0 + 9.0 * x) * params.nu
    else:
        omega = br.omega_min if where == "low_edge" else br.omega_max
        # the branch rising from zero starts at exactly 0
        for _ in range(abs(ulps) if omega > 0.0 else 0):
            omega = math.nextafter(omega, math.copysign(math.inf, ulps))
    _assert_root(params, model, br, omega, invert_dispersion(br, omega))


def test_invert_small_energy_to_an_ulp():
    """At omega = 1e-9 on the Gaussian an absolute momentum tolerance of
    1e-13 max(p_hi, 1) would leave a relative residual of about 1.5e-6."""
    params, model = gaussian_setup(beta_nu=50.0)
    br = first_branch(params, model, 1.0)
    for omega in (1e-12, 1e-9, 1e-6):
        p = invert_dispersion(br, omega)
        assert abs(omega_bg(params, model, p) - omega) <= 2.0 * math.ulp(omega)


def _count_inversion_cost(monkeypatch):
    """Record the dispersion evaluations each call of the root kernel
    makes (energy_point, the momentum scan and invert_dispersion all
    invert through it)."""
    evals = [0]
    per_call = []
    evaluate = bogoliubov._dispersion_and_slope
    invert = bogoliubov._invert

    def counted_eval(*args):
        evals[0] += 1
        return evaluate(*args)

    def counted_invert(*args):
        before = evals[0]
        p = invert(*args)
        per_call.append(evals[0] - before)
        return p

    monkeypatch.setattr(bogoliubov, "_dispersion_and_slope", counted_eval)
    monkeypatch.setattr(bogoliubov, "_invert", counted_invert)
    monkeypatch.setattr(damping, "_invert", counted_invert)
    return per_call


def test_invert_costs_at_most_two_evaluations_on_readme_energies(monkeypatch):
    """Every inversion of the README sweep (Gaussian v = 0.1, nine k from
    1e-3 to 0.2, beta*nu = 50, 200, 1000) takes one or two evaluations of
    the dispersion, so a slide into bisection shows.  The decay's
    mirrored nodes share their energy points, so the sweep makes about
    9,600 inversions (10,803 before)."""
    per_call = _count_inversion_cost(monkeypatch)
    model = GaussianPotential(v=0.1, nu=1.0)
    for bn in (50.0, 200.0, 1000.0):
        params = make_params(nu=1.0, beta=bn, vhat0=model.vhat0)
        for k in np.geomspace(1e-3, 0.2, 9):
            damping.gamma_beliaev_quadrature(params, model, float(k))
            damping.gamma_landau_quadrature(params, model, float(k))
    assert len(per_call) > 9_000
    assert max(per_call) <= 2
    assert sum(per_call) <= 1.05 * len(per_call)


def test_invert_costs_at_most_two_evaluations_across_a_branch(monkeypatch):
    """Energies across the whole Gaussian branch, where roots lie between
    the nodes, and a slow Newton step on a tabulated profile."""
    params, model, brs = _invert_branches("gaussian")
    per_call = _count_inversion_cost(monkeypatch)
    for omega in np.linspace(brs[0].omega_min, brs[0].omega_max, 2001):
        bogoliubov.invert_dispersion(brs[0], float(omega))
    assert max(per_call) <= 2
    # an energy on the dip table where a stop rule that trusted an
    # inexact slope to the last bit would stop a step short of the root
    params, model, brs = _invert_branches("dip")
    omega = 1.038465430559586
    _assert_root(params, model, brs[1], omega,
                 bogoliubov.invert_dispersion(brs[1], omega))


@pytest.mark.parametrize("name", ["maxon_roton", "dip"])
def test_tabulated_inversions_take_one_evaluation(monkeypatch, name):
    """4001 energies across every branch of a tabulated profile.  The
    profile's slope is its interpolant's own derivative, so Newton's stop
    rule needs no allowance for a slope error: a second evaluation is
    rare.  A central-difference slope with a stop rule allowing for its
    error took a second one in 3.9 % of these calls."""
    params, model, brs = _invert_branches(name)
    per_call = _count_inversion_cost(monkeypatch)
    for br in brs:
        for omega in np.linspace(br.omega_min, br.omega_max, 4001):
            bogoliubov.invert_dispersion(br, float(omega))
    assert len(per_call) == 4001 * len(brs)
    assert max(per_call) <= 2
    assert sum(n == 2 for n in per_call) <= 0.02 * len(per_call)


def test_invert_bisects_past_a_wrong_slope(monkeypatch):
    """A slope of the wrong sign sends every Newton step out of the
    bracket; bisection still lands on the root."""
    model = GaussianPotential(v=0.1, nu=1.0)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    br = detect_branches(params, model, p_max=8.0)[0]
    energies = (1e-6, 0.37, 5.0)
    per_call = _count_inversion_cost(monkeypatch)
    monkeypatch.setattr(GaussianPotential, "vhat_dvhat",
                        lambda self, k: (self.vhat(k), -1e9))
    ps = [bogoliubov.invert_dispersion(br, omega) for omega in energies]
    assert 2 < max(per_call) < bogoliubov._INVERT_MAXIT
    monkeypatch.undo()
    for omega, p in zip(energies, ps):
        _assert_root(params, model, br, omega, p)


def test_invert_raises_when_the_loop_runs_out(monkeypatch):
    """A dispersion that evaluates to NaN never closes the bracket."""
    model = GaussianPotential(v=0.1, nu=1.0)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    br = detect_branches(params, model, p_max=8.0)[0]
    monkeypatch.setattr(GaussianPotential, "vhat_dvhat",
                        lambda self, k: (math.nan, math.nan))
    with pytest.raises(AssumptionError, match="did not converge"):
        invert_dispersion(br, 0.37)


def _layered_slope(params, model, k):
    """omega(k) and omega'(k) from a vhat call and a dvhat call of their
    own, the evaluation before the one-call profile entry."""
    nu, v0 = params.nu, model.vhat0
    vh = model.vhat(k)
    w, r = bogoliubov._dispersion(k, nu * vh / v0)
    slope = nu * _np_slope(nu, v0, k, vh, model.dvhat(k)) / r
    return w, (math.sqrt(nu) if k == 0.0 else slope)


def _layered_invert(br, omega):
    """invert_dispersion before the root kernel: the branch's stored
    constants, and each iterate evaluated by _layered_slope."""
    wlo, whi = br.omega_min, br.omega_max
    omega = min(max(omega, wlo), whi)
    wv, pv = br._asc_w, br._asc_p
    i = min(max(bisect.bisect_left(wv, omega), 1), len(wv) - 1)
    pa, pb = pv[i - 1], pv[i]
    lo, hi = (pa, pb) if pa <= pb else (pb, pa)
    if lo == hi:
        return lo
    wa = wv[i - 1]
    dp = pb - pa
    dw = wv[i] - wa
    t = (omega - wa) / dw if dw > 0.0 else 0.5
    if br._hermite[i - 1]:
        p = (pa + t * t * (3.0 - 2.0 * t) * dp
             + t * (t - 1.0) * ((t - 1.0) * br._ma[i - 1] + t * br._mb[i - 1]))
    else:
        p = pa + t * dp
    p = min(max(p, lo), hi)
    curv = br._curv[i - 1]
    sign = 1.0 if br.increasing else -1.0
    last = hi - lo
    for _ in range(bogoliubov._INVERT_MAXIT):
        w, slope = _layered_slope(br.params, br.model, p)
        g = sign * (w - omega)
        if g < 0.0:
            lo = p
        elif g > 0.0:
            hi = p
        elif g == 0.0:
            return p
        dg = sign * slope
        step = g / dg if dg > 0.0 else math.inf
        q = p - step
        if q == p:
            return p
        size = abs(step)
        if lo < q < hi and 2.0 * size <= last:
            if curv * size * size <= math.ulp(q):
                return q
            last = size
        else:
            q = 0.5 * (lo + hi)
            if q == lo or q == hi:
                return q
            last = hi - lo
        p = q
    raise AssertionError("layered inversion did not converge")


def _layered_energy_point(params, model, br, x):
    """energy_point before the root kernel: the inversion, then a vhat and
    a dvhat call at the root."""
    p = _layered_invert(br, x)
    nu, v0 = params.nu, model.vhat0
    vh = model.vhat(p)
    nu_x = nu * (vh / v0)
    c = math.sqrt(0.5 * p * p + nu_x + x)
    s = abs(nu_x) / c
    npk = _np_slope(nu, v0, p, vh, model.dvhat(p))
    return s, c, 2.0 * x / (c + s), nu_x, 1.0 / (nu * npk), npk


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["gaussian", "flat_cutoff", "maxon_roton",
                                  "dip"])
def test_root_kernel_matches_the_layered_evaluation(name):
    """The root kernel's (p, vhat(p), vhat'(p)) and energy_point's tuple
    have the bits of an inversion that evaluated vhat and dvhat apart at
    each iterate and again at the root: 3001 energies across each branch,
    both ends, and the clamped slack half outside them."""
    params, model, brs = _invert_branches(name)
    for br in brs:
        half = 0.5e-12 * max(br.omega_max, 1.0)
        energies = np.linspace(br.omega_min, br.omega_max, 3001).tolist()
        energies += [br.omega_min - half, br.omega_max + half]
        for x in energies:
            p = _layered_invert(br, x)
            assert _bits(bogoliubov._invert(br, x)) == _bits(
                (p, model.vhat(p), model.dvhat(p))), x
            assert _bits(bogoliubov.energy_point(params, model, br, x)) == \
                _bits(_layered_energy_point(params, model, br, x)), x


def _reference_invert(br, p_nodes, w_nodes, d_nodes, omega):
    """invert_dispersion with the Hermite tangents, their admissibility
    and the Newton constant derived in line from the nodes at each call."""
    step = 1 if br.increasing else -1
    wv = list(w_nodes[::step])
    pv = list(p_nodes[::step])
    dv = list(d_nodes[::step])
    omega = min(max(omega, wv[0]), wv[-1])
    i = min(max(bisect.bisect_left(wv, omega), 1), len(wv) - 1)
    pa, pb = pv[i - 1], pv[i]
    lo, hi = (pa, pb) if pa <= pb else (pb, pa)
    if lo == hi:
        return lo
    wa, da, db = wv[i - 1], dv[i - 1], dv[i]
    dp = pb - pa
    dw = wv[i] - wa
    t = (omega - wa) / dw if dw > 0.0 else 0.5
    ma = dw / da if da != 0.0 else math.inf
    mb = dw / db if db != 0.0 else math.inf
    if 0.0 <= ma / dp <= 3.0 and 0.0 <= mb / dp <= 3.0:
        t2 = t * t
        p = (pa + t2 * (3.0 - 2.0 * t) * dp
             + t * (t - 1.0) * ((t - 1.0) * ma + t * mb))
    else:
        p = pa + t * dp
    p = min(max(p, lo), hi)
    dmin = min(abs(da), abs(db))
    curv = 2.0 * abs(db - da) / (abs(dp) * dmin) if dmin > 0.0 else math.inf
    sign = 1.0 if br.increasing else -1.0
    last = hi - lo
    for _ in range(bogoliubov._INVERT_MAXIT):
        w, slope = bogoliubov._omega_and_slope(br.params, br.model, p)
        g = sign * (w - omega)
        if g < 0.0:
            lo = p
        elif g > 0.0:
            hi = p
        elif g == 0.0:
            return p
        dg = sign * slope
        step = g / dg if dg > 0.0 else math.inf
        q = p - step
        if q == p:
            return p
        if lo < q < hi and 2.0 * abs(step) <= last:
            if curv * abs(step) * abs(step) <= math.ulp(q):
                return q
            last = abs(step)
        else:
            q = 0.5 * (lo + hi)
            if q == lo or q == hi:
                return q
            last = hi - lo
        p = q
    raise AssertionError("reference inversion did not converge")


@pytest.mark.parametrize("j", [0, 1])
def test_stored_branch_constants_match_the_in_line_formulas(j):
    """A branch built from synthetic nodes with a node slope of exactly
    0.0 (the stationary end detect_branches finds when fm == 0.0), one of
    the wrong sign and one a thousandth of its value (two intervals whose
    Hermite tangents are not admissible) inverts every energy to the bits
    of the formulas evaluated at each call."""
    params, model, brs = _invert_branches("maxon_roton")
    p = np.linspace(brs[j].p_lo, brs[j].p_hi, 33)
    w, d = bogoliubov._omega_and_slope(params, model, p)
    d[-1] = 0.0
    d[9] = -d[9]
    d[20] *= 1e-3
    br = bogoliubov.DispersionBranch(params, model, j, p, w, d, j % 2 == 0)
    assert not br._hermite[9 if j == 0 else 22]
    assert not br._hermite[20 if j == 0 else 11]
    assert br._curv[-1 if j == 0 else 0] == math.inf
    energies = np.concatenate((w, np.linspace(br.omega_min, br.omega_max,
                                              997)))
    for omega in energies.tolist():
        got = invert_dispersion(br, omega)
        want = _reference_invert(br, p.tolist(), w.tolist(), d.tolist(), omega)
        assert got.hex() == want.hex()


def test_branch_table_grows_to_cover_energy():
    params, model = gaussian_setup(beta_nu=10.0)
    before = branch_table(params, model, 10.0)
    br = first_branch(params, model, 50.0)
    assert br.omega_max >= 50.0
    after = branch_table(params, model, 10.0)
    # the table is a pure function of its arguments: no wider table leaks back
    assert len(after) == len(before)
    for b, a in zip(before, after):
        assert np.array_equal(a._asc_p, b._asc_p)
        assert np.array_equal(a._asc_w, b._asc_w)


@pytest.mark.parametrize("name", ["gaussian", "maxon_roton", "dip"])
def test_branch_table_makes_one_array_vhat_call_per_branch(name):
    """One call on the scan grid, then one per branch: the node energies
    and slopes come from one kernel call."""
    inner = INVERT_MODELS[name]
    model = CountingVhat(inner)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    brs = detect_branches(params, model, p_max=getattr(inner, "k_max", 8.0))
    assert model.calls["array"] == 1 + len(brs)


def test_measure_factor_flat():
    params, model = flat_setup()
    br = detect_branches(params, model, p_max=20.0)[0]
    # f(nu z) = 1/(nu sqrt(1+z^2)) for the flat profile
    assert measure_factor_f(params, model, br, 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-10)
    for z in (0.3, 2.0, 7.0):
        want = 1.0 / math.sqrt(1.0 + z * z)
        assert measure_factor_f(params, model, br, z) == pytest.approx(want, rel=1e-9)


def test_measure_factor_zero_limit():
    params, model = gaussian_setup(beta_nu=10.0)
    br = first_branch(params, model, 1.0)
    assert measure_factor_f(params, model, br, 1e-7) == pytest.approx(1.0, rel=1e-5)


def test_measure_factor_matches_fd():
    params, model = gaussian_setup(beta_nu=10.0)
    br = first_branch(params, model, 5.0)
    for u in (0.2, 1.0, 3.0):
        h = 1e-5 * u
        p2 = invert_dispersion(br, u + h) ** 2
        m2 = invert_dispersion(br, u - h) ** 2
        fd = (p2 - m2) / ((u + h) ** 2 - (u - h) ** 2)
        assert measure_factor_f(params, model, br, u) == pytest.approx(fd, rel=1e-6)


def test_measure_factor_singular_at_turning_point():
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    brs = detect_branches(params, model, p_max=model.k_max)
    top = brs[0].omega_max                     # local max of the dispersion
    with pytest.raises((SingularMeasureError, RangeError)):
        measure_factor_f(params, model, brs[0], top)
