import contextlib
import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bogodamp import damping
from bogodamp.bogoliubov import branch_table, omega_bg
from bogodamp.damping import (MC_MIN_SAMPLES, _cdf_index, _cdf_table,
                              gamma_beliaev_quadrature,
                              gamma_landau_quadrature, mc_oracle)
from bogodamp.errors import ExtrapolationError, IntegrandError, ParameterError
from bogodamp.params import make_params
from bogodamp.potential import (FlatCutoffPotential, GaussianPotential,
                                TabulatedPotential, load_tabulated)
from conftest import CountingVhat, gaussian_setup, maxon_roton_table

DIP = load_tabulated(os.path.join(os.path.dirname(__file__), "data",
                                  "dip_profile.dat"))
FLAT = FlatCutoffPotential(v0=0.8, Lambda=1.5)
MAXON = maxon_roton_table()


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


@pytest.mark.parametrize("beta, k", [(1e-250, 1e150), (1.0, 1e150),
                                     (1e-30, 1e153)])
def test_rejects_a_decay_ball_without_finite_volume_before_sampling(beta, k):
    """4 pi R^3 / 3 used to raise a bare OverflowError once R passed about
    5.6e102; a radius whose ball has no finite volume raises a
    ParameterError naming k, and nothing is drawn first."""
    model = GaussianPotential(v=0.1, nu=1.0)
    params = make_params(nu=1.0, beta=beta, vhat0=model.vhat0)
    with mock.patch.object(damping, "_chunk_blocks") as draw:
        with pytest.raises(ParameterError, match=re.escape(
                f"k = {k:g} is too large for the Monte Carlo oracle")):
            mc_oracle(params, model, k, "beliaev", n_samples=10 ** 4)
    draw.assert_not_called()


def test_decay_ball_volume_bound_is_finite():
    R = damping._MC_MAX_RADIUS
    assert math.isfinite(4.0 * math.pi / 3.0 * math.nextafter(R, 0.0) ** 3)


@pytest.mark.parametrize("beta_nu, k", [(1e60, 1e-150), (1e300, 1e-310)])
def test_non_finite_estimate_raises(beta_nu, k):
    """The decay's per-draw values overflow in the whole-chunk sums,
    which returned (9.9e176, nan) and (inf, nan) with only a numpy
    warning; any other warning still fails the test."""
    params, model = gaussian_setup(beta_nu=beta_nu)
    with pytest.raises(IntegrandError, match="is not finite"):
        mc_oracle(params, model, k, "beliaev", epsilon=1e-30,
                  n_samples=10 ** 4)


def test_overflowing_block_raises_without_a_warning():
    """At beta = 1e-250, k = 1e150 the absorption's vertex and weights
    overflow inside the block; that warned before the sums raised, and
    the suite turns any warning into an error."""
    model = GaussianPotential(v=0.1, nu=1.0)
    params = make_params(1.0, 1e-250, model.vhat0)
    with pytest.raises(IntegrandError, match="is not finite"):
        mc_oracle(params, model, 1e150, "landau", n_samples=MC_MIN_SAMPLES)


def test_large_k_decay_evaluates_without_a_warning():
    """At beta = 1, k = 1e100 the coefficient kernel overflowed with a
    warning; the block now runs without one."""
    model = GaussianPotential(v=0.1, nu=1.0)
    params = make_params(1.0, 1.0, model.vhat0)
    est, err = mc_oracle(params, model, 1e100, "beliaev",
                         n_samples=MC_MIN_SAMPLES)
    assert math.isfinite(est) and math.isfinite(err)


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
# table; 1,234,567 samples end in a partial chunk and a partial block.
# Four rows moved by 1 ulp when the chunk sums came to run over the
# weighed draws alone, without the culled draws' zeros.
PINNED = [
    ("gaussian", 0.3, "beliaev", None, 1_234_567, 0,
     (6.744991290166536e-07, 2.0364269881765758e-08)),
    ("gaussian", 0.3, "landau", None, 1_234_567, 0,
     (4.792677255618491e-06, 8.930414167146712e-08)),
    ("flat", 0.45, "beliaev", None, 200_000, 5,
     (3.0188966998307887e-05, 2.251487919156238e-06)),
    ("flat", 0.45, "landau", None, 200_000, 5,
     (5.152123974424812e-05, 2.217770717343996e-06)),
    ("dip", 0.2, "beliaev", None, 200_000, 9,
     (2.7339261908632233e-06, 2.2522561674777116e-07)),
    ("dip", 0.2, "landau", None, 200_000, 9,
     (0.00017350510623512087, 2.1145009741739392e-05)),
    ("gaussian", 0.2, "beliaev", 0.00040159721088022177, 150_000, 42,
     (1.1242482204806392e-07, 7.948103388954767e-09)),
    ("gaussian", 0.2, "landau", 0.00040159721088022177, 150_000, 42,
     (3.3553414522434414e-06, 1.3261320516848804e-07)),
    # the maxon rows were drawn before the two processes shared one block
    # evaluator; at k = 1 almost no decay draw reaches the shell
    ("maxon", 0.4, "beliaev", None, 200_000, 13,
     (4.999591867380121e-05, 3.722451014236922e-06)),
    ("maxon", 0.4, "landau", None, 200_000, 13,
     (0.0001857820696732471, 2.828401076726605e-05)),
    ("maxon", 1.0, "beliaev", None, 200_000, 13,
     (1.1641693969180884e-26, 1.1606638501294275e-26)),
    ("maxon", 1.0, "landau", None, 200_000, 13,
     (8.286756778750231e-05, 1.679719969647528e-05)),
]


def _setup(name):
    if name == "gaussian":
        return gaussian_setup(beta_nu=10.0)
    if name == "flat":
        return make_params(1.0, 10.0, FLAT.v0), FLAT
    model = {"dip": DIP, "maxon": MAXON}[name]
    return make_params(1.0, 4.0, model.vhat0), model


@pytest.mark.parametrize("name,k,process,eps,n,seed,want", PINNED)
def test_oracle_bits_are_pinned(name, k, process, eps, n, seed, want):
    params, model = _setup(name)
    assert mc_oracle(params, model, k, process, eps, n, seed) == want


@pytest.mark.parametrize("block", [4099, 2 ** 16, 2 ** 17])
@pytest.mark.parametrize("process,want", [(PINNED[0][2], PINNED[0][6]),
                                          (PINNED[1][2], PINNED[1][6])])
def test_block_size_moves_no_bit(monkeypatch, block, process, want):
    # the work rows are sized by _MC_BLOCK; 1,234,567 samples end in a
    # partial chunk and a partial block at every size
    monkeypatch.setattr(damping, "_MC_BLOCK", block)
    params, model = gaussian_setup(beta_nu=10.0)
    assert mc_oracle(params, model, 0.3, process, None, 1_234_567, 0) == want


def test_draws_past_the_table_raise_as_before():
    # q reaches past k_max = 2 here; the cull evaluates every draw past
    # the table, so the error still names the block's largest q
    grid = np.linspace(0.0, 2.0, 81)
    model = TabulatedPotential(grid, np.exp(-grid ** 2 / 2))
    params = make_params(1.0, 10.0, model.vhat0)
    with pytest.raises(ExtrapolationError) as err:
        mc_oracle(params, model, 1.2, "beliaev", n_samples=20000, seed=0)
    assert str(err.value) == ("k = 2.391072890320565 beyond tabulated "
                              "range [0, 2.0]")


def _shell_setup(name, beta_nu):
    if name == "gaussian":
        return gaussian_setup(beta_nu=beta_nu)
    model = {"flat": FLAT, "dip": DIP, "maxon": MAXON}[name]
    return make_params(1.0, beta_nu, model.vhat0), model


@pytest.mark.parametrize("process", ["beliaev", "landau"])
@pytest.mark.parametrize("name", ["gaussian", "flat", "dip", "maxon"])
def test_shell_cull_is_exact(name, process):
    """On each block, every draw with |z| < 39 over the whole block, as
    evaluated without the cull, is a candidate.  And each check bounds
    every draw's energy sum S: rt + qt <= S for a decay's first check and
    an absorption's second, rt + qt <= -S for the other two."""
    blocks = []
    on_shell = 0
    third_leg, shell_draws = damping._third_leg, damping._shell_draws

    def leg(r, *args):
        blocks.append(r.copy())
        return third_leg(r, *args)

    def draws(shell, ir, q2, iq, *work):
        nonlocal on_shell
        c = shell_draws(shell, ir, q2, iq, *work)
        r = blocks.pop()
        q = np.sqrt(np.maximum(q2, 0.0))
        wr = omega_bg(params, model, r)
        wq = omega_bg(params, model, q)
        if process == "beliaev":
            z = (w_k - wr - wq) / eps
            s = wr + wq
            sides = (s, -s)
        else:
            z = (wq - wr - w_k) / eps
            s = wq - wr
            sides = (-s, s)
        on = np.flatnonzero(np.abs(z) < 39.0)
        assert np.isin(on, c).all()
        on_shell += on.size
        for (rt, qt, _lim), side in zip(shell.checks, sides):
            bound = rt.take(ir, mode="clip") + qt.take(iq, mode="clip")
            assert np.all(bound <= side)
        return c

    with mock.patch.object(damping, "_third_leg", leg), \
            mock.patch.object(damping, "_shell_draws", draws):
        for beta_nu in (1.0, 10.0, 1e3):
            params, model = _shell_setup(name, beta_nu)
            for k in (0.05, 0.3, 1.0):
                w_k = omega_bg(params, model, k)
                for rel in (1e-3, 1e-9):
                    eps = rel * w_k
                    mc_oracle(params, model, k, process, eps,
                              n_samples=MC_MIN_SAMPLES, seed=3)
    assert not blocks
    assert on_shell > 100


@contextlib.contextmanager
def _open_window():
    """Run the oracle with its draw-space window open: every draw of a
    block goes on to the exact cull, which must keep only draws that the
    window, as built, would have let through.  Yields the number of draws
    the exact cull kept."""
    window_draws, shell_draws = damping._window_draws, damping._shell_draws
    candidates = []
    kept = [0]

    def window(table, u0, *work):
        candidates.append(window_draws(table, u0, *work))
        return np.arange(len(u0))

    def draws(*args):
        c = shell_draws(*args)
        assert np.isin(c, candidates.pop()).all()
        kept[0] += c.size
        return c

    with mock.patch.object(damping, "_window_draws", window), \
            mock.patch.object(damping, "_shell_draws", draws):
        yield kept
    assert not candidates


@pytest.mark.parametrize("process", ["beliaev", "landau"])
@pytest.mark.parametrize("name", ["gaussian", "flat", "dip", "maxon"])
def test_window_is_exact(name, process):
    """On each block, every draw the _shell checks keep is a candidate of
    the window; on the grid of test_shell_cull_is_exact."""
    with _open_window() as kept:
        for beta_nu in (1.0, 10.0, 1e3):
            params, model = _shell_setup(name, beta_nu)
            for k in (0.05, 0.3, 1.0):
                w_k = omega_bg(params, model, k)
                for rel in (1e-3, 1e-9):
                    mc_oracle(params, model, k, process, rel * w_k,
                              n_samples=MC_MIN_SAMPLES, seed=3)
    assert kept[0] > 100


@pytest.mark.parametrize("process", ["beliaev", "landau"])
@pytest.mark.parametrize("name", ["gaussian", "flat"])
def test_window_is_exact_on_dense_draws(name, process):
    """400,000 draws at beta nu = 10: dense enough that a window built
    from the least r term of each u0 cell's lowest r cell alone, not of
    every r cell it reaches, loses draws the exact cull keeps."""
    params, model = _shell_setup(name, 10.0)
    with _open_window() as kept:
        for k in (0.05, 0.3, 1.0):
            mc_oracle(params, model, k, process, n_samples=400_000, seed=1)
    assert kept[0] > 1000


def test_window_keeps_draws_past_the_table():
    """The decay of test_draws_past_the_table_raise_as_before: draws past
    the table bound nothing, so the window keeps them and they raise."""
    grid = np.linspace(0.0, 2.0, 81)
    model = TabulatedPotential(grid, np.exp(-grid ** 2 / 2))
    params = make_params(1.0, 10.0, model.vhat0)
    with _open_window() as kept:
        with pytest.raises(ExtrapolationError, match="beyond tabulated"):
            mc_oracle(params, model, 1.2, "beliaev", n_samples=20000, seed=0)
    assert kept[0] > 0


@pytest.mark.parametrize("process,share", [("beliaev", 0.016),
                                           ("landau", 0.097)])
def test_window_candidate_share(process, share):
    """At the workload point (Gaussian v = 0.1, k = 0.3, beta nu = 10, 1e6
    samples) the window lets 1.34 % (decay) and 8.09 % (absorption) of
    the draws through, against 1.18 % and 6.39 % that the exact cull
    keeps; the bounds allow 20 % more, so a window that opens to every
    draw fails."""
    window_draws = damping._window_draws
    seen = [0, 0]

    def window(table, u0, *work):
        c = window_draws(table, u0, *work)
        seen[0] += len(u0)
        seen[1] += c.size
        return c

    params, model = gaussian_setup(beta_nu=10.0)
    with mock.patch.object(damping, "_window_draws", window):
        mc_oracle(params, model, 0.3, process, n_samples=10 ** 6, seed=0)
    assert seen[0] == 10 ** 6
    assert seen[1] < share * seen[0]


@pytest.mark.parametrize("cells", [97, 4096])
def test_cell_bounds_hold_across_stationary_points(cells):
    """On the maxon table, omega anywhere in a cell lies within the cell's
    bounds; the cells holding the maxon and the roton bound nothing, nor
    does the entry past the grid."""
    params = make_params(1.0, 10.0, MAXON.vhat0)
    branches = branch_table(params, MAXON, 3.0)
    x = np.linspace(0.0, branches[-1].p_hi, cells + 1)
    lo, hi = damping._cell_bounds(branches, x, omega_bg(params, MAXON, x))
    assert len(branches) == 3
    assert np.isinf(lo).sum() == np.isinf(hi).sum() == 3
    assert (lo[-1], hi[-1]) == (-np.inf, np.inf)
    t = np.random.default_rng(0).random((cells, 64))
    p = x[:-1, None] + t * np.diff(x)[:, None]
    w = omega_bg(params, MAXON, p.ravel()).reshape(p.shape)
    assert np.all(lo[:-1, None] <= w) and np.all(w <= hi[:-1, None])


@pytest.mark.parametrize("process,elements", [("beliaev", 59877),
                                              ("landau", 253371)])
def test_oracle_profile_element_budget(process, elements):
    """Array profile elements of one call at the workload point (Gaussian
    v = 0.1, k = 0.3, beta nu = 10, 1e6 samples): the branch scan, the
    shell tables, omega on the draws the cull keeps and the vertex on the
    shell.  Evaluating omega at every draw took 2028159 (decay) and
    2121508 (absorption)."""
    m = CountingVhat(GaussianPotential(v=0.1, nu=1.0))
    mc_oracle(make_params(1.0, 10.0, m.vhat0), m, 0.3, process,
              n_samples=10 ** 6, seed=0)
    assert m.elements == elements


@pytest.mark.parametrize("process", ["beliaev", "landau"])
def test_oracle_memory_is_bounded(process):
    # blocks of 2^16 samples keep the temporaries small and the draws are
    # streamed per block (11.5 MiB decay, 13.2 MiB absorption); whole-chunk
    # evaluation peaked at 77 MiB (beliaev) and 100 MiB (landau)
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
def test_oracle_memory_holds_no_chunk_buffer(process):
    # the chunk sums run over the weighed draws alone (4.9 MiB decay,
    # 6.1 MiB absorption); a zero-filled buffer of a chunk's values
    # peaked at 12.3 and 13.1 MiB
    assert _oracle_peak(process, 10 ** 6) < 8 * 2 ** 20


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


def _lookup(cdf, u):
    n = len(u)
    return _cdf_index(cdf, u, np.empty(n, np.intp), np.empty(n, np.intp),
                      np.empty(n), np.empty(n, bool))


def _assert_lookup_exact(cdf, u, got=None):
    got = _lookup(cdf, u) if got is None else got
    want = np.searchsorted(cdf.cum, u, side="right") - 1
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
    _assert_lookup_exact(_cdf_table(cum, bins), u)


@pytest.fixture(scope="module")
def oracle_cdfs():
    """Lookup tables of the Landau sampler at k/sqrt(nu) in {0.05, 0.3, 2}
    and beta*nu in {1, 10, 1e3}, each checked on the oracle's own draws."""
    seen = []

    def spy(cdf, u, *work):
        got = _cdf_index(cdf, u, *work)
        _assert_lookup_exact(cdf, u, got)
        seen.append(cdf)
        return got

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
    cdf = oracle_cdfs[which]
    assert cdf.bins == len(cdf.first) == 2 ** 16
    _assert_lookup_exact(cdf, _edge_draws(cdf.cum, 2 ** 16, picks))
