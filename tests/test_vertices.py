import math

import numpy as np
import pytest

from bogodamp.bogoliubov import bogo_coeffs, first_branch, omega_bg
from bogodamp.errors import DomainError, RangeError, SingularityError
from bogodamp.params import make_params
from bogodamp.potential import (FlatCutoffPotential, GaussianPotential,
                                PotentialModel)
from bogodamp.vertices import (G_of, _j_arrays, eff_U, eff_V, regularized_F,
                               vertex_j, vertex_kappa)
from conftest import CountingVhat, gaussian_setup, maxon_roton_table


def flat_setup(nu=1.0):
    model = FlatCutoffPotential(v0=1.0, Lambda=float("inf"))
    return make_params(nu=nu, beta=10.0, vhat0=1.0), model


def random_vectors(rng, n, lo=0.05, hi=3.0):
    """Pairs of 3d vectors with all of |p|, |q|, |p+q| well away from 0."""
    out = []
    while len(out) < n:
        p = rng.uniform(-hi, hi, 3)
        q = rng.uniform(-hi, hi, 3)
        if min(np.linalg.norm(p), np.linalg.norm(q),
               np.linalg.norm(p + q)) > lo:
            out.append((p, q))
    return out


def test_j_flat_equal_momenta():
    """j(1;1,1) = 2 (c-s)(c^2+s^2-cs) sqrt(nu vhat0) on the flat profile."""
    params, model = flat_setup()
    s, c = bogo_coeffs(params, model, 1.0)
    want = 2.0 * (c - s) * (c * c + s * s - c * s)
    got = vertex_j(params, model, 1.0, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(1.19628, abs=5e-6)


def test_kappa_flat_equal_momenta():
    params, model = flat_setup()
    s, c = bogo_coeffs(params, model, 1.0)
    want = -6.0 * c * s * (c - s)
    got = vertex_kappa(params, model, 1.0, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(-1.7944185, abs=5e-8)


def test_vertex_scale_with_vhat0():
    # both vertices are proportional to sqrt(nu vhat0) at fixed shape
    params, model = gaussian_setup(beta_nu=10.0)
    params2 = make_params(nu=params.nu, beta=params.beta, vhat0=4.0 * params.vhat0)
    j1 = vertex_j(params, model, 0.9, 0.5, 0.7)
    j2 = vertex_j(params2, model, 0.9, 0.5, 0.7)
    assert j2 == pytest.approx(2.0 * j1, rel=1e-13)


def test_j_symmetric_in_last_two():
    params, model = gaussian_setup(beta_nu=10.0)
    rng = np.random.default_rng(11)
    for _ in range(30):
        k, p, q = rng.uniform(0.05, 4.0, 3)
        a = vertex_j(params, model, k, p, q)
        b = vertex_j(params, model, k, q, p)
        assert a == pytest.approx(b, rel=1e-13)


def test_kappa_fully_symmetric():
    params, model = gaussian_setup(beta_nu=10.0)
    rng = np.random.default_rng(12)
    for _ in range(30):
        k, p, q = rng.uniform(0.05, 4.0, 3)
        vals = [vertex_kappa(params, model, *perm)
                for perm in ((k, p, q), (p, q, k), (q, k, p), (k, q, p))]
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], rel=1e-13)


# (k, p, q, kappa) on uniform(0.05, 4) triples of default_rng(20261019),
# from the written-out three-term kappa sum, before kappa read _vertex
KAPPA_PINS = {
    "gaussian": [
        (1.0482842666683034, 2.9667086961269233, 0.6351892043774926,
         -0.4372351401835729),
        (2.1613761256926223, 1.6440597911929749, 3.8329157392479725,
         -0.13946383091088696),
        (3.7562642287867076, 1.1808585228606931, 3.160788731356662,
         -0.14386952341494816),
        (1.6189534419695453, 1.9924909433817526, 0.6171581131644971,
         -0.45291507136102205),
        (1.5323577143078868, 1.4360280209164988, 2.1101514059503863,
         -0.2828670633336265),
        (2.312362785386231, 3.720453211859097, 1.7695288689362965,
         -0.12696585379310318),
        (0.8041512969032242, 1.1763427776591064, 0.9980153673951929,
         -0.5436839213663062),
        (1.8537194666445682, 2.2743181149677, 0.127157249118183,
         -0.9871735644021117),
        (2.2053825486947143, 3.9850546139592726, 2.4628371994826614,
         -0.09119305248534212),
        (2.72824648174313, 1.5607823612486673, 3.950777163361155,
         -0.11859539391368376),
        (1.6671810435007444, 0.37906844785545146, 1.5484107142527344,
         -0.624847740156549),
        (1.2013382390709886, 0.28730787943734537, 1.2994622618876297,
         -0.7915492936015933),
    ],
    "flat": [
        (1.0482842666683034, 2.9667086961269233, 0.6351892043774926,
         -1.825933037161129),
        (2.1613761256926223, 1.6440597911929749, 3.8329157392479725,
         -0.7901978707523677),
        (3.7562642287867076, 1.1808585228606931, 3.160788731356662,
         -0.8918579457548865),
        (1.6189534419695453, 1.9924909433817526, 0.6171581131644971,
         -1.7092878096837814),
        (1.5323577143078868, 1.4360280209164988, 2.1101514059503863,
         -1.1281642845599693),
        (2.312362785386231, 3.720453211859097, 1.7695288689362965,
         -0.7340804579222147),
        (0.8041512969032242, 1.1763427776591064, 0.9980153673951929,
         -1.8465317999512443),
        (1.8537194666445682, 2.2743181149677, 0.127157249118183,
         -3.8811682420276767),
        (2.2053825486947143, 3.9850546139592726, 2.4628371994826614,
         -0.6060669359343898),
        (2.72824648174313, 1.5607823612486673, 3.950777163361155,
         -0.7408546130129461),
        (1.6671810435007444, 0.37906844785545146, 1.5484107142527344,
         -2.2572826945186613),
        (1.2013382390709886, 0.28730787943734537, 1.2994622618876297,
         -2.7093441103192517),
    ],
    "maxon": [
        (1.0482842666683034, 2.9667086961269233, 0.6351892043774926,
         -0.9465425551072659),
        (2.1613761256926223, 1.6440597911929749, 3.8329157392479725,
         -0.07327251480031098),
        (3.7562642287867076, 1.1808585228606931, 3.160788731356662,
         -0.38182860632726273),
        (1.6189534419695453, 1.9924909433817526, 0.6171581131644971,
         0.38115141962004484),
        (1.5323577143078868, 1.4360280209164988, 2.1101514059503863,
         0.04548762136690373),
        (2.312362785386231, 3.720453211859097, 1.7695288689362965,
         -0.07037814719704913),
        (0.8041512969032242, 1.1763427776591064, 0.9980153673951929,
         -0.9562798303164556),
        (1.8537194666445682, 2.2743181149677, 0.127157249118183,
         1.7074971384855617),
        (2.2053825486947143, 3.9850546139592726, 2.4628371994826614,
         -0.05077013307702605),
        (2.72824648174313, 1.5607823612486673, 3.950777163361155,
         -0.08454399728469467),
        (1.6671810435007444, 0.37906844785545146, 1.5484107142527344,
         0.3349299000832379),
        (1.2013382390709886, 0.28730787943734537, 1.2994622618876297,
         -0.9239509310524854),
    ],
}


def _pin_setup(name):
    if name == "gaussian":
        return gaussian_setup(beta_nu=10.0)
    if name == "flat":
        return flat_setup()
    model = maxon_roton_table()
    return make_params(nu=1.0, beta=10.0, vhat0=model.vhat0), model


@pytest.mark.parametrize("name", sorted(KAPPA_PINS))
def test_kappa_bits_are_pinned(name):
    params, model = _pin_setup(name)
    for k, p, q, want in KAPPA_PINS[name]:
        assert repr(vertex_kappa(params, model, k, p, q)) == repr(want)


# vertex_j(k; p, q) on the KAPPA_PINS triples, and (eff_V, eff_U) on the
# twelve random_vectors pairs of default_rng(20261019), as computed before
# the vertex forms shared their leg setup
J_PINS = {
    "gaussian": (
        0.32972784633708385, 0.33004137527856237, 0.3485440785568722,
        0.29610745212963274, 0.3949962162051986, 0.3395490652449086,
        0.4268010725248573, 0.14163369813353044, 0.32882077192260856,
        0.32108251643661706, 0.2172691608555632, 0.21992353126266886,
    ),
    "flat": (
        1.4899593685833084, 1.576846196716382, 1.3059708656675513,
        1.056052905353461, 1.451729373219027, 1.5889383746391852,
        1.4345846860538964, 0.6439512207251894, 1.7234676057920795,
        1.524747761953717, 0.6978445739784156, 0.7304441425984491,
    ),
    "maxon": (
        0.8913650404520512, 0.5660708467434834, 0.7985424003214109,
        0.1490517990920771, -0.40174642134624733, 0.4709666454428433,
        0.7821997631824011, 0.10513446425881877, 0.5537272526394623,
        0.5317611742301218, 0.5144464028856708, 0.3529049742777542,
    ),
}
VU_PINS = {
    "gaussian": (
        (0.18450024753828234, -0.04128711566211331),
        (0.1646154979932018, -0.017044048531940862),
        (0.14555060308852585, -0.05168868124522145),
        (0.19440171740153303, -0.001307426813097027),
        (0.1801224112226966, -0.002952970785150814),
        (0.19956593386444269, -0.00024141812652371826),
        (0.10070471999316674, -0.0025259689720084503),
        (0.1337634471078606, -0.000541326557478103),
        (0.17497848011166603, -0.014852511737770167),
        (0.20504795386935099, -0.004214620095858763),
        (0.17969051598311686, -0.005669954328515095),
        (0.11202136248586447, -0.0011093462949321265),
    ),
    "flat": (
        (0.8825820541797629, -0.21817813666626268),
        (0.897512939386529, -0.11873261813728414),
        (0.466896888294139, -0.18760650504165632),
        (0.8037391132460383, -0.02715754577606344),
        (0.8374234948008782, -0.03886835014168629),
        (0.7902781792730804, -0.019244486916549976),
        (0.9261495007819402, -0.05143336952482342),
        (0.9003921026115671, -0.02328989583477941),
        (0.8541979752243972, -0.10099978096800119),
        (0.6824143008018854, -0.039515277140551495),
        (0.8400620103512251, -0.05376172904113112),
        (0.9156034145902471, -0.03315053594535874),
    ),
    "maxon": (
        (0.4730505728199935, -0.06970098187813738),
        (0.7044645973200365, -0.022394411601668954),
        (0.4476586727660854, -0.08785789269861073),
        (0.20696750304394818, -0.005024898816933737),
        (0.5089553048653628, -0.01650869391845257),
        (0.09842736714569914, -0.0015500880719123413),
        (0.6077734264581672, -0.024669524196442884),
        (0.6711348194195585, -0.008793852952813173),
        (0.553573110180017, -0.014205702157515068),
        (-0.6106699632305633, 0.01517207916185929),
        (0.48522567447495923, -0.024882052966302328),
        (0.6315841650273417, -0.01367284698247645),
    ),
}


@pytest.mark.parametrize("name", sorted(J_PINS))
def test_j_bits_are_pinned(name):
    params, model = _pin_setup(name)
    for (k, p, q, _kappa), want in zip(KAPPA_PINS[name], J_PINS[name]):
        assert repr(vertex_j(params, model, k, p, q)) == repr(want)


@pytest.mark.parametrize("name", sorted(VU_PINS))
def test_effective_potential_bits_are_pinned(name):
    params, model = _pin_setup(name)
    pairs = random_vectors(np.random.default_rng(20261019), 12)
    for (p, q), (want_v, want_u) in zip(pairs, VU_PINS[name]):
        assert repr(eff_V(params, model, p, q)) == repr(want_v)
        assert repr(eff_U(params, model, p, q)) == repr(want_u)


@pytest.mark.parametrize("energies, name", [
    ((-1.0, 0.5, 0.5), "omega"),
    ((1.0, float("nan"), 0.5), "u"),
    ((1.0, 0.5, float("inf")), "w"),
    ((-1.0, -0.5, 0.5), "omega"),
])
def test_regularized_F_rejects_bad_energies(energies, name):
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        regularized_F(params, model, *energies)


def test_vertices_reject_zero_momentum():
    params, model = gaussian_setup(beta_nu=10.0)
    with pytest.raises(SingularityError):
        vertex_j(params, model, 0.0, 1.0, 1.0)
    with pytest.raises(SingularityError):
        vertex_kappa(params, model, 1.0, -0.5, 1.0)


def test_legs_are_checked_before_any_profile_call():
    model = CountingVhat(GaussianPotential(v=0.1, nu=1.0))
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    for fn in (vertex_j, vertex_kappa):
        with pytest.raises(SingularityError, match="^q must"):
            fn(params, model, 1.0, 0.5, 0.0)
    for fn in (eff_V, eff_U):
        with pytest.raises(SingularityError, match=r"^\|p\+q\| must"):
            fn(params, model, [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert model.calls == {"float": 0, "array": 0}


def test_v_plus_swapped_is_j():
    params, model = gaussian_setup(beta_nu=10.0)
    rng = np.random.default_rng(13)
    for p, q in random_vectors(rng, 25):
        lhs = eff_V(params, model, p, q) + eff_V(params, model, q, p)
        r = float(np.linalg.norm(p + q))
        rhs = vertex_j(params, model, r, float(np.linalg.norm(p)),
                       float(np.linalg.norm(q)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_v_identity_collinear():
    params, model = gaussian_setup(beta_nu=10.0)
    p = np.array([0.0, 0.0, 0.8])
    q = np.array([0.0, 0.0, 1.7])
    lhs = eff_V(params, model, p, q) + eff_V(params, model, q, p)
    rhs = vertex_j(params, model, 2.5, 0.8, 1.7)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def six_term_u_sum(params, model, k_vec, p_vec):
    """Sum of U over the six splittings of the (k, p, k-p) triangle."""
    terms = [(k_vec, -p_vec), (-p_vec, k_vec), (p_vec, k_vec - p_vec),
             (p_vec - k_vec, k_vec), (k_vec,
         p_vec - k_vec),
             (k_vec - p_vec, p_vec)]
    return sum(eff_U(params, model, a, b) for a, b in terms)


def test_u_sum_is_kappa():
    params, model = gaussian_setup(beta_nu=10.0)
    rng = np.random.default_rng(14)
    got = 0
    while got < 25:
        k = rng.uniform(-2.5, 2.5, 3)
        p = rng.uniform(-2.5, 2.5, 3)
        if min(np.linalg.norm(k), np.linalg.norm(p),
               np.linalg.norm(k - p)) < 0.05:
            continue
        got += 1
        lhs = six_term_u_sum(params, model, k, p)
        rhs = vertex_kappa(params, model, float(np.linalg.norm(k)),
                           float(np.linalg.norm(p)),
                           float(np.linalg.norm(k - p)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_F_zero_lines():
    params, model = gaussian_setup(beta_nu=10.0)
    for w in np.linspace(0.02, 1.5, 12):
        a = regularized_F(params, model, float(w), float(w), 0.0)
        b = regularized_F(params, model, float(w), 0.0, float(w))
        assert abs(a) < 1e-12
        assert abs(b) < 1e-12


def test_F_symmetric_in_last_two():
    params, model = gaussian_setup(beta_nu=10.0)
    rng = np.random.default_rng(15)
    for _ in range(30):
        om, u, w = rng.uniform(0.01, 1.2, 3)
        a = regularized_F(params, model, om, u, w)
        b = regularized_F(params, model, om, w, u)
        assert a == pytest.approx(b, rel=1e-13)


def test_F_consistent_with_j():
    params, model = gaussian_setup(beta_nu=10.0)
    from bogodamp.bogoliubov import invert_dispersion
    br = first_branch(params, model, 2.0)
    rng = np.random.default_rng(16)
    for _ in range(20):
        om, u, w = rng.uniform(0.05, 1.5, 3)
        F = regularized_F(params, model, om, u, w)
        pk = invert_dispersion(br, om)
        pu = invert_dispersion(br, u)
        pw = invert_dispersion(br, w)
        want = (math.sqrt(8.0 * om * u * w)
                * math.sqrt(params.nu / params.vhat0)
                * vertex_j(params, model, pk, pu, pw))
        assert F == pytest.approx(want, rel=1e-10)


def test_F_out_of_branch_range():
    # the structured table has a bounded first branch, so an energy above
    # its local maximum cannot be inverted there
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    with pytest.raises(RangeError):
        regularized_F(params, model, 2.0, 0.3, 0.2)


def test_F_cubic_law_convergence():
    # sqrt(nu) F / (3 u w (u+w)) -> 1 quadratically as energies shrink
    params, model = gaussian_setup(beta_nu=10.0)
    u0, w0 = 0.03, 0.02
    devs = []
    for lam in (1.0, 0.5, 0.25):
        u, w = lam * u0, lam * w0
        F = regularized_F(params, model, u + w, u, w)
        devs.append(abs(math.sqrt(params.nu) * F / (3 * u * w * (u + w)) - 1.0))
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.15)
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.15)


def test_G_nonnegative_random():
    params, model = gaussian_setup(beta_nu=10.0)
    rng = np.random.default_rng(17)
    for _ in range(50):
        u, w = rng.uniform(0.0, 0.8, 2)
        assert G_of(params, model, float(u), float(w)) >= 0.0


def test_G_matches_F_squared():
    params, model = gaussian_setup(beta_nu=10.0)
    for u, w in ((0.1, 0.2), (0.5, 0.4), (0.02, 0.9)):
        F = regularized_F(params, model, u + w, u, w)
        assert G_of(params, model, u, w) == pytest.approx(F * F, rel=1e-13)


def test_vertices_on_three_branch_model():
    # amplitude functions stay finite and symmetric on a structured table
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    rng = np.random.default_rng(18)
    for _ in range(20):
        k, p, q = rng.uniform(0.1, 5.0, 3)
        a = vertex_j(params, model, k, p, q)
        assert math.isfinite(a)
        assert a == pytest.approx(vertex_j(params, model, k, q, p), rel=1e-12)


def _scalar_j(params, model, ks, ps, qs):
    return np.array([vertex_j(params, model, k, p, q)
                     for k, p, q in zip(ks, ps, qs)])


class _ArrayProfile(PotentialModel):
    """Delegates to a model, evaluating floats through its array path."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def vhat0(self):
        return self.inner.vhat0

    def vhat(self, k):
        if np.ndim(k) == 0:
            return float(self.inner.vhat(np.array([k]))[0])
        return self.inner.vhat(k)


@pytest.mark.parametrize("model", [FlatCutoffPotential(0.8, 1.5),
                                   maxon_roton_table(),
                                   _ArrayProfile(GaussianPotential(0.1, 1.0))],
                         ids=["flat", "maxon_table", "gaussian_array_profile"])
def test_array_vertex_equals_scalar_vertex_bit_for_bit(model):
    # both paths run the one coefficient kernel and the one j formula; the
    # bare Gaussian is left out because its float profile (math.exp) and
    # array profile (np.exp) differ by up to 2 ulp, which cancellation
    # among j's three terms can magnify without bound
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    k, p, q = np.random.default_rng(21).uniform(0.01, 3.0, (3, 500))
    got = _j_arrays(params, model, k, p, q)
    np.testing.assert_array_equal(got, _scalar_j(params, model, k, p, q))


class _CountingModel(PotentialModel):
    """Delegates to a model and counts its vhat calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def vhat0(self):
        return self.inner.vhat0

    def vhat(self, k):
        self.calls += 1
        return self.inner.vhat(k)


@pytest.mark.parametrize("inner", [GaussianPotential(v=0.1, nu=1.0),
                                   FlatCutoffPotential(0.8, 1.5),
                                   maxon_roton_table()],
                         ids=["gaussian", "flat", "maxon_table"])
def test_one_vhat_call_per_momentum(inner):
    model = _CountingModel(inner)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    bogo_coeffs(params, model, 0.7)
    assert model.calls == 1
    model.calls = 0
    vertex_j(params, model, 0.7, 0.4, 0.5)
    assert model.calls == 3
