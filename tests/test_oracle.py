import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bogodamp import damping
from bogodamp.damping import (MC_MIN_SAMPLES, _cdf_index,
                              gamma_beliaev_quadrature,
                              gamma_landau_quadrature, mc_oracle)
from bogodamp.errors import ParameterError
from bogodamp.params import make_params
from bogodamp.potential import FlatCutoffPotential, load_tabulated
from conftest import gaussian_setup

DIP = load_tabulated(os.path.join(os.path.dirname(__file__), "data",
                                  "dip_profile.dat"))
FLAT = FlatCutoffPotential(v0=0.8, Lambda=1.5)


def test_deterministic_for_fixed_seed():
    params, model = gaussian_setup(beta_nu=10.0)
    a = mc_oracle(params, model, 0.3, "beliaev", n_samples=10 ** 5, seed=7)
    b = mc_oracle(params, model, 0.3, "beliaev", n_samples=10 ** 5, seed=7)
    assert a == b
    c = mc_oracle(params, model, 0.3, "beliaev", n_samples=10 ** 5, seed=8)
    assert c != a


def test_stderr_scales_like_inverse_sqrt_n():
    params, model = gaussian_setup(beta_nu=10.0)
    _, s1 = mc_oracle(params, model, 0.3, "landau", n_samples=10 ** 5, seed=3)
    _, s2 = mc_oracle(params, model, 0.3, "landau", n_samples=16 * 10 ** 5,
                      seed=3)
    assert s1 / s2 == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize("process,fn", [
    ("beliaev", gamma_beliaev_quadrature),
    ("landau", gamma_landau_quadrature),
])
def test_agrees_with_quadrature(process, fn):
    params, model = gaussian_setup(beta_nu=10.0)
    k = 0.3
    est, err = mc_oracle(params, model, k, process, n_samples=10 ** 6,
                         seed=1234)
    ref = fn(params, model, k).value
    assert err > 0.0
    assert abs(est - ref) <= 3.0 * err
    # the sampler should also be in the right ballpark outright
    assert est == pytest.approx(ref, rel=0.05)


def test_rejects_tiny_sample():
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(ParameterError):
        mc_oracle(params, model, 0.3, "beliaev", n_samples=9999, seed=1)


def test_rejects_bad_process():
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(ParameterError):
        mc_oracle(params, model, 0.3, "raman", n_samples=10 ** 5, seed=1)


@pytest.mark.parametrize("process", ["beliaev", "landau"])
def test_rejects_extreme_heat_before_sampling(process):
    """At beta nu = 1e-300 the decay used to return (nan, nan) and the
    absorption to raise a DomainError about k; both name beta now, and
    no sampling (no numpy warning) happens first."""
    params, model = gaussian_setup(beta_nu=1e-300)
    with mock.patch.object(damping, "_chunk_blocks") as draw:
        with pytest.raises(ParameterError, match=r"^beta = 1e-300 is too small"):
            mc_oracle(params, model, 0.3, process, n_samples=10 ** 4)
    draw.assert_not_called()


def test_rejects_a_radius_density_without_finite_total():
    """theta = beta omega(k) clears the bound at k = 1e60, but the
    absorption radius reaches 1e110, where r^2 times the cell overflows."""
    params, model = gaussian_setup(beta_nu=1.0)
    w_k = damping.omega_bg(params, model, 1e60)
    params = make_params(nu=1.0, beta=1e-99 / w_k, vhat0=model.vhat0)
    with pytest.raises(ParameterError, match="radius density on"):
        mc_oracle(params, model, 1e60, "landau", n_samples=10 ** 4)


def test_mollifier_width_override():
    # a wider smearing window changes the estimate smoothly, not wildly
    params, model = gaussian_setup(beta_nu=10.0)
    k = 0.3
    a, _ = mc_oracle(params, model, k, "beliaev", epsilon=None,
                     n_samples=10 ** 5, seed=11)
    from bogodamp.bogoliubov import omega_bg
    eps = 2e-3 * omega_bg(params, model, k)
    b, berr = mc_oracle(params, model, k, "beliaev", epsilon=eps,
                        n_samples=10 ** 5, seed=11)
    assert math.isfinite(b)
    assert abs(a - b) <= 6.0 * berr


# (estimate, stderr) as drawn before the blocked evaluation and the guide
# table; 1,234,567 samples end in a partial chunk and a partial block
PINNED = [
    ("gaussian", 0.3, "beliaev", None, 1_234_567, 0,
     (6.744991290166536e-07, 2.036426988176576e-08)),
    ("gaussian", 0.3, "landau", None, 1_234_567, 0,
     (4.792677255618491e-06, 8.930414167146712e-08)),
    ("flat", 0.45, "beliaev", None, 200_000, 5,
     (3.0188966998307887e-05, 2.251487919156238e-06)),
    ("flat", 0.45, "landau", None, 200_000, 5,
     (5.152123974424812e-05, 2.2177707173439955e-06)),
    ("dip", 0.2, "beliaev", None, 200_000, 9,
     (2.7339261908632233e-06, 2.2522561674777116e-07)),
    ("dip", 0.2, "landau", None, 200_000, 9,
     (0.00017350510623512087, 2.1145009741739392e-05)),
    ("gaussian", 0.2, "beliaev", 0.00040159721088022177, 150_000, 42,
     (1.1242482204806392e-07, 7.948103388954767e-09)),
    ("gaussian", 0.2, "landau", 0.00040159721088022177, 150_000, 42,
     (3.3553414522434414e-06, 1.3261320516848804e-07)),
]


def _setup(name):
    if name == "gaussian":
        return gaussian_setup(beta_nu=10.0)
    if name == "flat":
        return make_params(1.0, 10.0, FLAT.v0), FLAT
    return make_params(1.0, 4.0, DIP.vhat0), DIP


@pytest.mark.parametrize("name,k,process,eps,n,seed,want", PINNED)
def test_oracle_bits_are_pinned(name, k, process, eps, n, seed, want):
    params, model = _setup(name)
    assert mc_oracle(params, model, k, process, eps, n, seed) == want


@pytest.mark.parametrize("process", ["beliaev", "landau"])
def test_oracle_memory_is_bounded(process):
    # blocks of 2^16 samples keep the temporaries small and the draws are
    # streamed per block (13-14 MiB); whole-chunk evaluation peaked at
    # 77 MiB (beliaev) and 100 MiB (landau)
    params, model = gaussian_setup(beta_nu=10.0)
    tracemalloc.start()
    try:
        mc_oracle(params, model, 0.3, process, n_samples=10 ** 6, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def _oracle_peak(process, n_samples):
    params, model = gaussian_setup(beta_nu=10.0)
    tracemalloc.start()
    try:
        mc_oracle(params, model, 0.3, process, n_samples=n_samples, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("process", ["beliaev", "landau"])
def test_oracle_memory_does_not_grow_with_samples(process):
    # one chunk buffer plus block temporaries: holding a chunk's (2, m)
    # draw, or the next chunk's arrays beside the last, peaked at 38 MiB
    small = _oracle_peak(process, 10 ** 6)
    large = _oracle_peak(process, 3 * 10 ** 6)
    assert large < 16 * 2 ** 20
    assert abs(large - small) < 2 ** 20


@pytest.mark.parametrize("m", [40, 41, 42, 43, 2 ** 17 + 1, 2 ** 17 + 2,
                               2 ** 17 + 3, 3 * 2 ** 16])
def test_streamed_rows_equal_the_whole_draw(m):
    # m % 4 in {0, 1, 2, 3}, each in one short block and in several blocks
    # whose last is short.  If Philox.advance ever meant something else,
    # this fails here and not only through the pinned bits.
    key = np.array([2 ** 64 - 3, 1], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).random((2, m))
    starts, rows0, rows1 = [], [], []
    for s, u0, u1 in damping._chunk_blocks(key, m):
        starts.append(s)
        rows0.append(u0.copy())
        rows1.append(u1.copy())
    assert starts == list(range(0, m, damping._MC_BLOCK))
    assert np.array_equal(np.concatenate(rows0), want[0])
    assert np.array_equal(np.concatenate(rows1), want[1])


def _guide(cum, bins):
    return np.searchsorted(cum, np.arange(bins + 1) / bins, side="right") - 1


def _edge_draws(cum, bins, picks):
    """u in [0, 1): the ends, bin edges j/G and nodes, each also one ulp
    below, plus arbitrary draws."""
    top = np.nextafter(1.0, 0.0)
    out = [0.0, top]
    for kind, j, x in picks:
        if kind == "edge":
            v = (j % bins) / bins
        elif kind == "node":
            v = float(cum[j % len(cum)])
        else:
            v = x
        out += [v, float(np.nextafter(v, 0.0))]
    return np.minimum(np.array(out), top)


def _assert_lookup_exact(cum, guide, u):
    got = _cdf_index(cum, guide, u)
    want = np.searchsorted(cum, u, side="right") - 1
    assert np.array_equal(got, want)


PICKS = st.lists(st.tuples(st.sampled_from(["edge", "node", "any"]),
                           st.integers(0, 2 ** 16),
                           st.floats(0.0, 1.0, exclude_max=True)),
                 max_size=40)


@settings(max_examples=150, deadline=None)
@given(head=st.integers(0, 4096), power=st.sampled_from([1, 2, 6]),
       weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
                        max_size=300),
       log_bins=st.sampled_from([4, 8, 16]), picks=PICKS,
       seed=st.integers(0, 2 ** 32 - 1))
def test_cdf_index_equals_searchsorted(head, power, weights, log_bins, picks,
                                       seed):
    # a steep head (density x^power over `head` nodes) crowds many nodes
    # into the first bins; zero weights make flat runs of equal nodes
    x = np.arange(head) / max(head, 1)
    w = np.concatenate((x ** power, weights))
    assume(w.size and np.sum(w) > 0)
    cum = np.concatenate(([0.0], np.cumsum(w)))
    cum /= cum[-1]
    bins = 2 ** log_bins
    u = np.concatenate((_edge_draws(cum, bins, picks),
                        np.random.default_rng(seed).random(500)))
    _assert_lookup_exact(cum, _guide(cum, bins), u)


@pytest.fixture(scope="module")
def oracle_cdfs():
    """(cum, guide) of the Landau sampler at k/sqrt(nu) in {0.05, 0.3, 2}
    and beta*nu in {1, 10, 1e3}, each checked on the oracle's own draws."""
    seen = []

    def spy(cum, guide, u):
        _assert_lookup_exact(cum, guide, u)
        seen.append((cum, guide))
        return _cdf_index(cum, guide, u)

    with mock.patch.object(damping, "_cdf_index", spy):
        for bn in (1.0, 10.0, 1e3):
            params, model = gaussian_setup(beta_nu=bn)
            for k in (0.05, 0.3, 2.0):
                mc_oracle(params, model, k, "landau",
                          n_samples=MC_MIN_SAMPLES, seed=0)
    assert len(seen) == 9
    return seen


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 8), picks=PICKS)
def test_cdf_index_on_oracle_cdfs(oracle_cdfs, which, picks):
    cum, guide = oracle_cdfs[which]
    assert len(guide) == 2 ** 16 + 1
    _assert_lookup_exact(cum, guide, _edge_draws(cum, 2 ** 16, picks))
