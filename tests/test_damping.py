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
                                 invert_dispersion, omega_bg, omega_bg_prime)
from bogodamp.damping import (DampingResult, detect_support, flat_highT_kernel,
                              flat_highT_kernel_integral,
                              gamma_beliaev_asymptotic,
                              gamma_beliaev_quadrature,
                              gamma_landau_asymptotic, gamma_landau_flat_highT,
                              gamma_landau_quadrature, reduce_delta_generic,
                              select_regime, total_damping)
from bogodamp.errors import DomainError, ParameterError
from bogodamp.params import make_params
from bogodamp.potential import (FlatCutoffPotential, GaussianPotential,
                                PotentialModel, load_tabulated)
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


def _inverted_counts(params, model, branches, process, k, w_k, p):
    """Root counts by inverting the dispersion branch by branch
    (_resolve_roots), at a float p or at each entry of an array p."""
    if np.ndim(p):
        return np.array([_inverted_counts(params, model, branches, process,
                                          k, w_k, float(x)) for x in p])
    wp = omega_bg(params, model, p)
    tgt = w_k - wp if process == "beliaev" else w_k + wp
    if tgt <= 0.0:
        return 0
    return len(damping._resolve_roots(branches, tgt, abs(p - k), p + k))


def _inverted_support(params, model, k, process):
    """detect_support with every root count taken by inversion."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(damping, "_root_counts", _inverted_counts)
        return detect_support(params, model, k, process)


def _edge_tol(params, model, sup, p, p_hi):
    """How far rounding can move a support edge at p between an energy
    comparison and an inversion: 1e-15 max(p_hi, 1), plus an energy
    rounding of 8 eps (omega(k) + omega(p)) over the slope of the energy
    gap that decides the edge.  That gap is the target against a branch
    end or against omega at a window end, |p - k| or p + k, clamped to
    the branch table; the smallest of the three slopes is taken.  The
    gap is flat where collinear decay nearly conserves energy, as on a
    near-linear dispersion, about k^2 flat at small k."""
    k, process, top = sup.k, sup.process, sup.branches[-1].p_hi

    def d(x):
        return omega_bg_prime(params, model, x) if x <= top else 0.0

    s = 1.0 if process == "landau" else -1.0  # the target's slope is s d(p)
    slopes = (d(p), s * d(p) - math.copysign(d(abs(p - k)), p - k),
              s * d(p) - d(p + k))
    gap = min(abs(x) for x in slopes)
    energy = 8.0 * np.finfo(float).eps * (omega_bg(params, model, k)
                                          + omega_bg(params, model, p))
    return 1e-15 * max(p_hi, 1.0) + (energy / gap if gap else math.inf)


def _assert_same_support(params, model, sup, ref):
    """sup has ref's root counts, segment by segment, and its edges within
    rounding of ref's (_edge_tol)."""
    assert [c for (_a, _b, c) in sup.segments] == [c for (_a, _b, c) in
                                                     ref.segments]
    got = [x for seg in sup.segments for x in seg[:2]]
    want = [x for seg in ref.segments for x in seg[:2]]
    for x, e in zip(got, want):
        assert abs(x - e) <= _edge_tol(params, model, ref, e, want[-1])


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
    """The energy comparisons count the roots inversion finds: the same
    counts segment by segment, the edges within rounding.  A grid that
    counted on arrays behind margins, and recounted by inversion wherever
    a comparison fell inside one, agreed with inversion bit for bit."""
    model = SUPPORT_MODELS[name]
    params = make_params(nu=1.0, beta=10.0 ** log_bn, vhat0=model.vhat0)
    k = 10.0 ** log_x
    sup = _outcome(detect_support, params, model, k, process)
    ref = _outcome(_inverted_support, params, model, k, process)
    if isinstance(ref, tuple):
        assert sup == ref
    else:
        _assert_same_support(params, model, sup, ref)


@pytest.mark.parametrize("j", [64, 200])
@pytest.mark.parametrize("edge", ["maxon", "roton", "window"])
def test_support_recounts_targets_on_a_branch_edge(edge, j):
    """k is solved so that the decay target at grid point j equals the
    energy of a stationary point, the edge of two branches, or (window)
    so that a root sits on the lower end |p - k| - slack of its window.
    The energy comparisons count that target as inversion does, on the
    grid's arrays and on a float, and the supports agree."""
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
    branches = branch_table(params, model, w_k)
    ps = np.linspace(0.0, k, 257)[1:-1]
    p = float(ps[j - 1])
    want = _inverted_counts(params, model, branches, "beliaev", k, w_k, p)
    args = (params, model, branches, "beliaev", k, w_k)
    assert damping._root_counts(*args, ps)[j - 1] == want
    assert damping._root_counts(*args, p) == want
    _assert_same_support(params, model,
                         detect_support(params, model, k, "beliaev"),
                         _inverted_support(params, model, k, "beliaev"))


@pytest.mark.parametrize("edge", ["maxon", "roton"])
def test_a_stationary_energy_has_one_root(edge):
    """A target exactly at a maxon or roton energy is counted once: the
    two branches meeting there own it on one side only.  Owning
    (omega_min, omega_max] on every branch counted the maxon twice and
    the roton not at all."""
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=4.0, vhat0=model.vhat0)
    branches = branch_table(params, model, 1.0)
    up, down, _ = branches
    energy = up.omega_max if edge == "maxon" else down.omega_min
    p_star = up.p_hi if edge == "maxon" else down.p_hi
    # the window [p_star - p, p_star + p] holds only the stationary root
    p = 0.25
    w = energy + omega_bg(params, model, p)
    assert w - omega_bg(params, model, p) == energy
    args = (params, model, branches, "beliaev", p_star, w)
    assert damping._root_counts(*args, p) == 1
    assert damping._root_counts(*args, np.array([p])).tolist() == [1]
    roots = damping._resolve_roots(branches, energy, p_star - p, p_star + p)
    assert [q for q, _vh, _dvh in roots] == [p_star]


def _count_inversions(monkeypatch):
    """The energies every dispersion inversion from here on is asked for."""
    calls = []
    orig = bogoliubov.invert_dispersion

    def counted(branch, omega):
        calls.append(omega)
        return orig(branch, omega)

    monkeypatch.setattr(bogoliubov, "invert_dispersion", counted)
    monkeypatch.setattr(damping, "invert_dispersion", counted)
    return calls


@pytest.mark.parametrize("process, most", [("beliaev", 0), ("landau", 1)])
def test_support_counts_roots_without_inverting(monkeypatch, process, most):
    """On a convex profile the grid counts take no inversion; Landau
    inverts once for the thermal cutoff momentum."""
    calls = _count_inversions(monkeypatch)
    params, model = gaussian_setup(beta_nu=50.0)
    sup = detect_support(params, model, 0.05, process)
    assert len(calls) <= most
    hi = 0.05 if process == "beliaev" else _landau_cutoff(params, model, sup)
    assert len(sup.branches) == 1
    assert sup.segments == ((0.0, hi, 1),)


@pytest.mark.parametrize("k", [0.6, 2.26])
@pytest.mark.parametrize("process", ["beliaev", "landau"])
@pytest.mark.parametrize("name", sorted(SUPPORT_MODELS))
def test_support_counts_roots_without_inverting_on_every_profile(
        monkeypatch, name, process, k):
    """The grid, the bisection and the per-segment counts never invert, on
    any profile; Landau inverts once for the thermal cutoff momentum.
    Counting by inversion wherever the count changed made 99 (decay) and
    51 (absorption) inversions on the maxon table at k = 0.6, 626 on its
    decay at k = 2.26."""
    model = SUPPORT_MODELS[name]
    params = make_params(nu=1.0, beta=4.0, vhat0=model.vhat0)
    calls = _count_inversions(monkeypatch)
    detect_support(params, model, k, process)
    assert len(calls) <= (process == "landau")


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


# model, beta*nu, k/sqrt(nu) of Landau points past the box's hot edge and in
# its cold corner, where both routes converge
LANDAU_EDGES = {
    "gauss_bn1e-4_k0.3": (GaussianPotential(v=0.1, nu=1.0), 1e-4, 0.3),
    "gauss_bn1e-6_k0.3": (GaussianPotential(v=0.1, nu=1.0), 1e-6, 0.3),
    "gauss_bn1e5_k2": (GaussianPotential(v=0.1, nu=1.0), 1e5, 2.0),
    "gauss_bn1e6_k0.3": (GaussianPotential(v=0.1, nu=1.0), 1e6, 0.3),
    "gauss_bn1e6_k0.1": (GaussianPotential(v=0.1, nu=1.0), 1e6, 0.1),
    "flat_bn1e6_k0.3": (FlatCutoffPotential(v0=1.0, Lambda=math.inf), 1e6,
                        0.3),
}


@pytest.mark.parametrize("name", sorted(LANDAU_EDGES))
def test_landau_routes_agree_at_the_box_edges(name):
    """Energy path and momentum scan converge and agree within 1e-9.

    dqagse's epsilon extrapolation left the energy path unconverged at
    all six points, and negative past the hot edge (-7.3e-4 at 1e-4,
    -5.9e-4 at 1e-6) though the integrand is non-negative.  The error
    bars are not checked: at the cold points the energy path's bar is
    2-15 times smaller than the gap between the routes, noise in the
    integrand that the rule's estimate does not see.
    """
    model, beta_nu, k = LANDAU_EDGES[name]
    params = make_params(nu=1.0, beta=beta_nu, vhat0=model.vhat0)
    a = gamma_landau_quadrature(params, model, k)
    b = reduce_delta_generic(params, model, k, "landau")
    assert a.method == "energy_quadrature"
    assert a.converged and b.converged
    assert a.value == pytest.approx(b.value, rel=1e-9)


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
    assert res.value == 2.983857733127338e-06
    assert res.abs_error == 2.5815960783825447e-15


def _decay_integrands(monkeypatch, params, model, k, n):
    """n fresh integrands of the decay's energy path at k, each with a
    mirror cache of its own; the rates themselves are not integrated."""
    grabbed = []

    def grab(f, pieces, quad):
        grabbed.append(f)
        return 0.0, 0.0, True

    with monkeypatch.context() as mp:
        mp.setattr(damping, "_integrate_pieces", grab)
        for _ in range(n):
            gamma_beliaev_quadrature(params, model, k)
    return grabbed


@pytest.mark.parametrize("bn, k", [(50.0, 1e-3), (200.0, 0.05),
                                   (1000.0, 0.2)])
def test_decay_integrand_is_even_in_y(monkeypatch, bn, k):
    """gy(-y) == gy(y) bit for bit at 400 random y: -y swaps u and w
    exactly and every factor is exactly symmetric in them, which is what
    lets a mirrored node take its value from the cache.  Each side comes
    from its own integrand, so no value here is a cache hit."""
    params, model = gaussian_setup(beta_nu=bn)
    w_k = omega_bg(params, model, k)
    plus, minus = _decay_integrands(monkeypatch, params, model, k, 2)
    for y in np.random.default_rng(7).uniform(-w_k, w_k, 400).tolist():
        a, b = plus(y), minus(-y)
        assert a > 0.0
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), y


def test_readme_decay_rates_share_mirrored_energy_points(monkeypatch):
    """The README sweep's 27 decay rates (Gaussian v = 0.1, nine k from
    1e-3 to 0.2, beta*nu = 50, 200, 1000) take their mirrored nodes from
    the cache: 1,293 energy points, where evaluating every node took
    2,505."""
    calls = [0]
    orig = damping.energy_point

    def counted(*args):
        calls[0] += 1
        return orig(*args)

    monkeypatch.setattr(damping, "energy_point", counted)
    model = GaussianPotential(v=0.1, nu=1.0)
    for bn in (50.0, 200.0, 1000.0):
        params = make_params(nu=1.0, beta=bn, vhat0=model.vhat0)
        for k in np.geomspace(1e-3, 0.2, 9):
            gamma_beliaev_quadrature(params, model, float(k))
    assert calls[0] <= 1300


class _TwoCallGaussian(PotentialModel):
    """A user model that defines only vhat, dvhat, vhat0 and d2vhat0, over
    the Gaussian: its vhat_dvhat is the base class's vhat then dvhat."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def vhat0(self):
        return self.inner.vhat0

    def vhat(self, k):
        return self.inner.vhat(k)

    def dvhat(self, k):
        return self.inner.dvhat(k)

    def d2vhat0(self):
        return self.inner.d2vhat0()


@pytest.mark.parametrize("bn, k", [(50.0, 0.05), (1000.0, 0.2), (4.0, 0.6)])
def test_a_model_without_vhat_dvhat_gives_the_same_rates(bn, k):
    """Both quadratures and the momentum scan return the Gaussian's rates
    bit for bit through the base class's two-call profile entry."""
    inner = GaussianPotential(v=0.1, nu=1.0)
    user = _TwoCallGaussian(inner)
    params = make_params(nu=1.0, beta=bn, vhat0=inner.vhat0)
    rates = (gamma_beliaev_quadrature, gamma_landau_quadrature,
             lambda p, m, k: reduce_delta_generic(p, m, k, "beliaev"),
             lambda p, m, k: reduce_delta_generic(p, m, k, "landau"))
    for rate in rates:
        want, got = rate(params, inner, k), rate(params, user, k)
        assert got.method == want.method
        assert got.converged is want.converged
        assert np.array([got.value, got.abs_error]).tobytes() == np.array(
            [want.value, want.abs_error]).tobytes()


@pytest.mark.parametrize("rate, floats, arrays", [
    (gamma_beliaev_quadrature, 1241, 7),
    (gamma_landau_quadrature, 16299, 11),
], ids=["beliaev", "landau"])
def test_generic_scan_profile_call_budget(rate, floats, arrays):
    """Float profile calls (vhat, or vhat and dvhat from one vhat_dvhat)
    of a whole scan rate on the maxon table, k = 0.2.

    Each scan node evaluates the profile once at p and once at each
    conservation root, and the coefficients at k once per rate; support
    detection and the table build count too.  A scan that evaluated
    omega(p), omega'(q) and vertex_j's three coefficients each from their
    own profile call made 2469 (decay) and 41571 (absorption) calls here;
    one that took omega(k) again after the rate entry had made 1273 and
    22543.  One that requested a branch table of its own, and took the
    absorption's tail slope through omega_bg_prime, made 1272 and 22542.
    One whose rate entry took omega(k) apart from the support made 1271
    and 22539.  One whose profile slope was a central difference, which
    Newton's stop rule had to allow for, made 1270 and 22538.  One whose
    quadrature extrapolated by dqagse's epsilon table made 1240 and 21452.
    A support that counted its grid on arrays behind margins, recounting
    by inversion inside them and in its bisection, made 1240 and 16320
    float calls and 17 array calls on both.  One that took a grid of
    constant count as the support without the count at its midpoint that
    every other support makes, made 1240 decay calls.  One whose scan
    evaluated each root once more after its inversion, also where the
    Newton loop had already evaluated it, made 1243 and 16371.
    """
    m = CountingVhat(maxon_roton_table())
    res = rate(make_params(1, 4, m.vhat0), m, 0.2)
    assert res.method == "generic_scan"
    assert m.calls == {"float": floats, "array": arrays}


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


@pytest.mark.parametrize("profile", ["gaussian", "flat"])
def test_rates_do_not_grow_with_beta(profile):
    """Both thermal weights are non-increasing in beta, so each rate is:
    a rate at the next beta nu is at most the previous one plus both
    error bars."""
    if profile == "gaussian":
        model = GaussianPotential(v=0.1, nu=1.0)
    else:
        model = FlatCutoffPotential(v0=1.0, Lambda=math.inf)
    for k in (1e-2, 0.1, 0.3, 1.0, 3.0):
        for rate in (gamma_beliaev_quadrature, gamma_landau_quadrature):
            prev = None
            for beta_nu in (1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4):
                res = rate(make_params(1.0, beta_nu, model.vhat0), model, k)
                if prev is not None:
                    assert res.value <= (prev.value + prev.abs_error
                                         + res.abs_error), (k, beta_nu)
                prev = res


@pytest.mark.parametrize("rate", [
    gamma_beliaev_quadrature,
    lambda params, model, k: reduce_delta_generic(params, model, k, "beliaev"),
])
def test_root_on_a_stationary_point_is_integrated(rate):
    # at k = 2.26 a decay root lands on the maxon top of the dispersion,
    # where the scan's 1/|omega'(q)| weight has an integrable singularity:
    # the rate is a number, and the quadrature's flag says it is not
    # resolved
    m = maxon_roton_table()
    res = rate(make_params(1, 4, m.vhat0), m, 2.26)
    assert res.method == "generic_scan"
    assert math.isfinite(res.value) and res.value > 0.0
    assert res.converged is False


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


@pytest.mark.parametrize("k", [-1.0, math.nan])
def test_closed_form_laws_reject_bad_k(k):
    params, model = flat_lawline()
    for law in (gamma_beliaev_asymptotic, gamma_landau_asymptotic):
        with pytest.raises(DomainError, match="k must be finite and >= 0"):
            law(params, model, k)
    with pytest.raises(DomainError, match="k must be finite and >= 0"):
        gamma_landau_flat_highT(params, k)


@pytest.mark.parametrize("k", [-1.0, math.nan, math.inf])
def test_select_regime_rejects_bad_k(k):
    # it picks a regime for the laws, so it takes k as they do
    params, model = gaussian_setup(beta_nu=10.0)
    for process in ("beliaev", "landau"):
        with pytest.raises(DomainError, match="k must be finite and >= 0"):
            select_regime(params, model, k, process)


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
