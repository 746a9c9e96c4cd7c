import math
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bogodamp import damping
from bogodamp.bogoliubov import branch_table, omega_bg
from bogodamp.damping import (MC_MIN_SAMPLES, gamma_beliaev_quadrature,
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
# a table that ends at k = 2, short of some draws' third leg
_GRID = np.linspace(0.0, 2.0, 81)
SHORT = TabulatedPotential(_GRID, np.exp(-_GRID ** 2 / 2))


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
    # 4e6 draws, so that the 5 % bound below is 3 standard errors of the
    # decay (relative stderr 1.7 %), as the first check's bound is
    est, err = mc_oracle(params, model, k, process, n_samples=4 * 10 ** 6,
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


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_epsilon_must_be_positive(epsilon):
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(ParameterError, match="epsilon must be positive"):
        mc_oracle(params, model, 0.3, "beliaev", epsilon=epsilon,
                  n_samples=10 ** 4)


def test_decay_ball_too_wide_for_epsilon_names_epsilon():
    """At k = 0.3 an epsilon of 1e300 puts the ball's energy omega(k) +
    5 epsilon at 5e300; the error used to blame k."""
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(ParameterError, match=re.escape(
            "epsilon = 1e+300 is too large for the Monte Carlo oracle: the "
            "decay ball of energy omega(k) + 5 epsilon = 5e+300 has radius")):
        mc_oracle(params, model, 0.3, "beliaev", epsilon=1e300,
                  n_samples=10 ** 4)


def test_decay_ball_energy_past_the_float_range_names_epsilon():
    """At epsilon = 1e308 the ball's energy omega(k) + 5 epsilon is inf;
    branch_table used to reject it with a message naming neither epsilon
    nor the ball."""
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(ParameterError, match=re.escape(
            "epsilon = 1e+308 is too large for the Monte Carlo oracle: the "
            "decay ball of energy omega(k) + 5 epsilon = inf has radius inf")):
        mc_oracle(params, model, 0.3, "beliaev", epsilon=1e308,
                  n_samples=10 ** 4)


def test_decay_ball_error_names_the_radius_weight():
    """At k = 3e102 the ball's radius passes _MC_MAX_RADIUS, 2.43e102,
    while its volume 4 pi R^3 / 3 = 1.14e308 is finite; the error used to
    say the ball had no finite volume."""
    model = GaussianPotential(v=0.1, nu=1.0)
    params = make_params(nu=1.0, beta=1.0, vhat0=model.vhat0)
    with mock.patch.object(damping, "_chunk_blocks") as draw:
        with pytest.raises(ParameterError, match=re.escape(
                "k = 3e+102 is too large for the Monte Carlo oracle: the "
                "decay ball of energy omega(k) + 5 epsilon = 4.5225e+204 "
                "has radius 3.00749e+102, where the largest radius weight, "
                "4 pi R^3, is not a finite float")):
            mc_oracle(params, model, 3e102, "beliaev", n_samples=10 ** 4)
    draw.assert_not_called()


def test_decay_ball_volume_bound_is_finite():
    # 4 pi R^3, the largest weight of a decay radius draw
    R = damping._MC_MAX_RADIUS
    assert math.isfinite(4.0 * math.pi * math.nextafter(R, 0.0) ** 3)


@pytest.mark.parametrize("beta_nu, k", [(1e60, 1e-150), (1e300, 1e-310)])
def test_non_finite_estimate_raises(beta_nu, k):
    """The decay's per-draw values overflow in the whole-chunk sums,
    which returned (9.9e176, nan) and (inf, nan) with only a numpy
    warning; any other warning still fails the test."""
    params, model = gaussian_setup(beta_nu=beta_nu)
    with pytest.raises(IntegrandError, match="is not finite"):
        mc_oracle(params, model, k, "beliaev", epsilon=1e-30,
                  n_samples=10 ** 4)


def test_underflowing_stderr_raises():
    """At epsilon = 1e300 every squared absorption draw underflows, and
    the pair came back as (1.1e-305, 0.0); at epsilon = 1e100 the same
    draws give a relative standard error of 2.7 %."""
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(IntegrandError, match="standard error below the float"):
        mc_oracle(params, model, 0.3, "landau", epsilon=1e300,
                  n_samples=10 ** 4, seed=1)
    est, err = mc_oracle(params, model, 0.3, "landau", epsilon=1e100,
                         n_samples=10 ** 4, seed=1)
    assert err / est == pytest.approx(0.027, abs=1e-3)


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


# (estimate, stderr); 1,234,567 samples end in a partial chunk and a
# partial block.
PINNED = [
    ("gaussian", 0.3, "beliaev", None, 1_234_567, 0,
     (6.687803922792241e-07, 2.0517051339505017e-08)),
    ("gaussian", 0.3, "landau", None, 1_234_567, 0,
     (4.778450854828833e-06, 8.88184178137388e-08)),
    ("flat", 0.45, "beliaev", None, 200_000, 5,
     (3.079198862220105e-05, 2.248374270420833e-06)),
    ("flat", 0.45, "landau", None, 200_000, 5,
     (4.921745138377109e-05, 2.1721416689567422e-06)),
    ("dip", 0.2, "beliaev", None, 200_000, 9,
     (2.1131728522798425e-06, 1.9640727353387815e-07)),
    ("dip", 0.2, "landau", None, 200_000, 9,
     (0.00018542703896221293, 2.2110900035323678e-05)),
    ("gaussian", 0.2, "beliaev", 0.00040159721088022177, 150_000, 42,
     (1.299841991089119e-07, 8.413110458169223e-09)),
    ("gaussian", 0.2, "landau", 0.00040159721088022177, 150_000, 42,
     (3.3701563394586705e-06, 1.3408053820604673e-07)),
    # at k = 1 almost no decay draw reaches the shell
    ("maxon", 0.4, "beliaev", None, 200_000, 13,
     (5.395684459494017e-05, 3.943554861558629e-06)),
    ("maxon", 0.4, "landau", None, 200_000, 13,
     (0.0002085739954667446, 2.9615886641468036e-05)),
    ("maxon", 1.0, "beliaev", None, 200_000, 13,
     (1.3920747662143956e-07, 9.238428720220094e-08)),
    ("maxon", 1.0, "landau", None, 200_000, 13,
     (5.401052828795754e-05, 1.2907303356445895e-05)),
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
    # q reaches past k_max = 2 here; the window holds every draw past the
    # table, so the error still names the block's largest q
    params = make_params(1.0, 10.0, SHORT.vhat0)
    with pytest.raises(ExtrapolationError) as err:
        mc_oracle(params, SHORT, 1.2, "beliaev", n_samples=20000, seed=0)
    assert str(err.value) == ("k = 2.265169225702888 beyond tabulated "
                              "range [0, 2.0]")


def _shell_setup(name, beta_nu):
    if name == "gaussian":
        return gaussian_setup(beta_nu=beta_nu)
    model = {"flat": FLAT, "dip": DIP, "maxon": MAXON, "short": SHORT}[name]
    return make_params(1.0, beta_nu, model.vhat0), model


# (beta nu, k, epsilon / omega(k), samples, seed) of each exactness run
GRID = [(beta_nu, k, rel, MC_MIN_SAMPLES, 3) for beta_nu in (1.0, 10.0, 1e3)
        for k in (0.05, 0.3, 1.0) for rel in (1e-3, 1e-9)]
# dense enough that a window built from each u0 cell's lowest radius
# alone, not from every radius it reaches, loses draws on the shell
DENSE = [(10.0, k, 1e-3, 400_000, 1) for k in (0.05, 0.3, 1.0)]


class _Built(Exception):
    """Stops mc_oracle once its window is built."""


def _built_window(params, model, k, process, eps):
    """(inputs, (lo, hi)) of the window mc_oracle builds at a point; the
    oracle stops there, before any draw."""
    window = damping._window
    built = []

    def spy(*args):
        built.append((args, window(*args)))
        raise _Built

    with mock.patch.object(damping, "_window", spy), pytest.raises(_Built):
        mc_oracle(params, model, k, process, eps, MC_MIN_SAMPLES)
    return built[0]


def _check_window(name, process, runs, least):
    """Among independent uniform (u0, u1) draws, every draw that has |z|
    < 39 or a third leg past a tabulated profile's range (where omega
    raises) lies in its u0 cell's [lo, hi] of the window as built: the
    window drops no draw the oracle weighs."""
    cells = damping._WINDOW_CELLS
    checked = 0
    for beta_nu, k, rel, n, seed in runs:
        params, model = _shell_setup(name, beta_nu)
        w_k = omega_bg(params, model, k)
        eps = rel * w_k
        (_p, _m, _b, r_edges, *_, absorb), (lo, hi) = _built_window(
            params, model, k, process, eps)
        u0, u1 = np.random.default_rng(seed).random((2, n))
        a = (u0 * cells).astype(np.intp)
        r, _ = damping._radius(r_edges, np.diff(r_edges), u0 * cells - a, a)
        q2 = damping._third_leg(r, u1 * 2.0 - 1.0, k, absorb)
        q = np.sqrt(np.maximum(q2, 0.0))
        past = q > getattr(model, "k_max", np.inf)
        wr = omega_bg(params, model, r)
        wq = omega_bg(params, model, np.where(past, 0.0, q))
        z = ((wq - wr - w_k) if absorb else (w_k - wr - wq)) / eps
        must = np.flatnonzero(past | (np.abs(z) < 39.0))
        assert np.all((lo[a[must]] <= u1[must]) & (u1[must] <= hi[a[must]]))
        checked += must.size
    assert checked >= least


@pytest.mark.parametrize("name,process,runs,least", [
    *[pytest.param(name, process, GRID, 100, id=f"{name}-{process}")
      for name in ("gaussian", "flat", "dip", "maxon")
      for process in ("beliaev", "landau")],
    # the decay of test_draws_past_the_table_raise_as_before
    pytest.param("short", "beliaev", [(10.0, 1.2, 1e-3, 20_000, 0)], 1,
                 id="short-beliaev"),
])
def test_window_is_exact(name, process, runs, least):
    _check_window(name, process, runs, least)


@pytest.mark.parametrize("process", ["beliaev", "landau"])
@pytest.mark.parametrize("name", ["gaussian", "flat"])
def test_window_is_exact_on_dense_draws(name, process):
    _check_window(name, process, DENSE, 100)


@pytest.mark.parametrize("process,share", [("beliaev", 0.016),
                                           ("landau", 0.097)])
def test_window_candidate_share(process, share):
    """At the workload point (Gaussian v = 0.1, k = 0.3, beta nu = 10) the
    window covers 1.335 % (decay) and 7.559 % (absorption) of draw space,
    the share of uniform draws it keeps, against 1.15 % and 5.61 % of the
    draws that are weighed; the bounds allow at least 20 % more, and fail
    a window that opens to every draw."""
    params, model = gaussian_setup(beta_nu=10.0)
    _args, (lo, hi) = _built_window(params, model, 0.3, process, None)
    assert np.sum(hi - lo) / damping._WINDOW_CELLS < share


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


# the ids keep the cases' names from their first pin
@pytest.mark.parametrize("process,elements", [
    pytest.param("beliaev", 63601, id="beliaev-62901"),
    pytest.param("landau", 281792, id="landau-280618")])
def test_oracle_profile_element_budget(process, elements):
    """Array profile elements of one call at the workload point (Gaussian
    v = 0.1, k = 0.3, beta nu = 10, 1e6 samples): the branch scan, the
    window's tables, omega on the window's candidates and the vertex on
    the shell.  Evaluating omega at every draw took 2028159 (decay) and
    2121508 (absorption)."""
    m = CountingVhat(GaussianPotential(v=0.1, nu=1.0))
    mc_oracle(make_params(1.0, 10.0, m.vhat0), m, 0.3, process,
              n_samples=10 ** 6, seed=0)
    assert m.elements == elements


@pytest.mark.parametrize("process", ["beliaev", "landau"])
def test_oracle_memory_is_bounded(process):
    # blocks of at most 2^13 draws keep the temporaries small and the
    # draws are streamed per block (1.9 MiB decay, 2.6 MiB absorption);
    # whole-chunk evaluation peaked at 77 MiB (beliaev) and 100 MiB
    # (landau)
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


@pytest.mark.parametrize("process", ["beliaev", "landau"])
def test_radius_draw_is_unbiased(process):
    """On each process's radius table at the workload point (Gaussian
    v = 0.1, k = 0.3, beta nu = 10), the weighed radius draws over 64
    midpoints of u0 per cell average g(r) = exp(-r^2 / s^2), s = R / 8,
    to its integral 4 pi r^2 g(r) dr = pi^(3/2) s^3; every radius lies
    in its own cell."""
    radius = damping._radius
    tables = []

    def spy(r_lo, dr, t, a):
        tables.append((r_lo, dr))
        return radius(r_lo, dr, t, a)

    params, model = gaussian_setup(beta_nu=10.0)
    with mock.patch.object(damping, "_radius", spy):
        mc_oracle(params, model, 0.3, process, n_samples=MC_MIN_SAMPLES,
                  seed=0)
    r_lo, dr = tables[0]
    cells = damping._WINDOW_CELLS
    assert len(r_lo) == cells + 1 and r_lo[0] == 0.0
    u0 = (np.arange(64 * cells) + 0.5) / (64 * cells)
    a = (u0 * cells).astype(np.intp)
    r, weight = radius(r_lo, dr, u0 * cells - a, a)
    assert np.all((r_lo[a] <= r) & (r <= r_lo[a + 1]))
    s = r_lo[-1] / 8.0
    got = np.mean(weight * np.exp(-np.square(r / s)))
    assert got == pytest.approx(math.pi ** 1.5 * s ** 3, rel=1e-4)


_KEY = np.array([2 ** 64 - 3, 1], dtype=np.uint64)


def _drawn(window, m):
    """(a, t, u1) of every draw _window_samples yields."""
    blocks = list(damping._window_samples(window, _KEY, m))
    if not blocks:
        return np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
    return tuple(np.concatenate(c) for c in zip(*blocks))


def _synthetic_window(seed):
    """Random [lo, hi] per cell, with some cells empty and some full."""
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(rng.random((2, damping._WINDOW_CELLS)), axis=0)
    hi[::7] = lo[::7]
    lo[::11], hi[::11] = 0.0, 1.0
    return lo, hi


def test_window_draws_lie_in_their_rectangles():
    lo, hi = _synthetic_window(1)
    a, t, u1 = _drawn((lo, hi), 200_000)
    assert a.size and np.all(np.diff(a) >= 0)
    assert np.all((0.0 <= t) & (t < 1.0))
    assert np.all((lo[a] <= u1) & (u1 <= hi[a]))
    r_lo = np.concatenate(([0.0], np.cumsum(
        np.random.default_rng(2).random(damping._WINDOW_CELLS))))
    r, _ = damping._radius(r_lo, np.diff(r_lo), t, a)
    assert np.all((r_lo[a] <= r) & (r <= r_lo[a + 1]))


def test_window_cell_counts_follow_the_areas():
    """Per-cell counts of 1e6 uniform draws against m (hi - lo) / cells,
    the draws outside the window as one more cell; an empty cell gets
    none."""
    from scipy.stats import chisquare
    m = 10 ** 6
    lo, hi = _synthetic_window(3)
    a, _t, _u1 = _drawn((lo, hi), m)
    counts = np.bincount(a, minlength=damping._WINDOW_CELLS)
    want = m * (hi - lo) / damping._WINDOW_CELLS
    assert not counts[want == 0].any()
    seen = np.append(counts[want > 0], m - a.size)
    expected = np.append(want[want > 0], m - want.sum())
    assert chisquare(seen, expected * (m / expected.sum())).pvalue > 1e-3


def test_empty_window_draws_nothing():
    lo = np.random.default_rng(4).random(damping._WINDOW_CELLS)
    with mock.patch.object(damping, "_chunk_blocks",
                           wraps=damping._chunk_blocks) as rows:
        assert all(c.size == 0 for c in _drawn((lo, lo), 50_000))
    rows.assert_called_once()
    assert rows.call_args.args[1] == 0


def test_full_window_is_the_plain_uniform_draw():
    """Every cell [0, 1]: all m draws count, and t and u1 are the (2, m)
    rows of the chunk's stream."""
    m = 300_001
    lo = np.zeros(damping._WINDOW_CELLS)
    a, t, u1 = _drawn((lo, lo + 1.0), m)
    want = np.random.Generator(np.random.Philox(key=_KEY)).random((2, m))
    assert a.size == m
    assert np.array_equal(t, want[0]) and np.array_equal(u1, want[1])


@pytest.mark.parametrize("block", [4099, 2 ** 16, 2 ** 17])
def test_window_block_size_moves_no_draw(monkeypatch, block):
    window = _synthetic_window(5)
    want = _drawn(window, 1_000_003)
    assert want[0].size > 2 * 2 ** 17
    monkeypatch.setattr(damping, "_MC_BLOCK", block)
    got = _drawn(window, 1_000_003)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
