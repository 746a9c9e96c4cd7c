import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from bogodamp.cli import main
from bogodamp.errors import DomainError, ExtrapolationError, ParameterError
from bogodamp.params import make_params
from bogodamp.potential import (FlatCutoffPotential, GaussianPotential,
                                TabulatedPotential, default_probe_grid,
                                evaluate_vhat, load_tabulated,
                                validate_assumptions)
from conftest import concave_table, gaussian_setup, maxon_roton_table


def test_gaussian_point_value():
    """v = 0.4, nu = 1 at k = sqrt(2): 0.4 exp(-0.4 * 2 / 2)."""
    m = GaussianPotential(v=0.4, nu=1.0)
    assert m.vhat(math.sqrt(2.0)) == pytest.approx(0.4 * math.exp(-0.4), rel=1e-12)
    assert m.vhat(math.sqrt(2.0)) == pytest.approx(0.26812802, abs=5e-9)


def test_gaussian_amplitude_and_curvature():
    m = GaussianPotential(v=0.3, nu=2.0)
    assert m.vhat0 == 0.3
    assert m.vhat(0.0) == pytest.approx(0.3)
    assert m.d2vhat0() == pytest.approx(-0.09 / 4.0, rel=1e-12)


def test_gaussian_derivative_matches_fd():
    m = GaussianPotential(v=0.25, nu=1.5)
    for k in (0.1, 0.7, 2.0, 5.0):
        h = 1e-6 * max(1.0, k)
        fd = (m.vhat(k + h) - m.vhat(k - h)) / (2 * h)
        assert m.dvhat(k) == pytest.approx(fd, rel=1e-7)


def test_gaussian_vectorized_agrees_with_scalar():
    m = GaussianPotential(v=0.1, nu=1.0)
    ks = np.array([0.0, 0.3, 1.0, 4.0])
    vec = m.vhat(ks)
    for i, k in enumerate(ks):
        assert vec[i] == pytest.approx(m.vhat(float(k)), rel=1e-14)


@pytest.mark.parametrize("k", [1e150, 1e155, 1e200, 1e308])
def test_gaussian_float_equals_array_at_huge_k(k):
    """Past k ~ 1.34e154 k^2 overflows: the float path returns the array
    path's 0.0 and -0.0 instead of raising OverflowError."""
    m = GaussianPotential(v=0.1, nu=1.0)
    with np.errstate(over="ignore"):
        vec, dvec = m.vhat(np.array([k])), m.dvhat(np.array([k]))
    for got, want in ((m.vhat(k), vec[0]), (m.dvhat(k), dvec[0])):
        assert type(got) is float
        assert got.hex() == float(want).hex()
    assert m.vhat(k).hex() == (0.0).hex()
    assert m.dvhat(k).hex() == (-0.0).hex()


def test_flat_profile_and_ramp():
    m = FlatCutoffPotential(v0=2.0, Lambda=3.0)
    assert m.vhat(0.0) == 2.0
    assert m.vhat(2.9) == 2.0
    assert m.vhat(4.5) == pytest.approx(1.0, rel=1e-12)   # midpoint of the ramp
    assert m.vhat(6.0) == pytest.approx(0.0, abs=1e-15)
    assert m.vhat(9.0) == 0.0
    # C1 junctions
    for jk in (3.0, 6.0):
        h = 1e-7
        left = (m.vhat(jk) - m.vhat(jk - h)) / h
        right = (m.vhat(jk + h) - m.vhat(jk)) / h
        assert abs(left - right) < 1e-5


def test_flat_infinite_cutoff_constant():
    m = FlatCutoffPotential(v0=1.0, Lambda=float("inf"))
    assert m.vhat(1e6) == 1.0
    assert m.dvhat(123.0) == 0.0


def test_reject_bad_amplitudes():
    with pytest.raises(ParameterError):
        GaussianPotential(v=0.0, nu=1.0)
    with pytest.raises(ParameterError):
        GaussianPotential(v=1.0, nu=-2.0)
    with pytest.raises(ParameterError):
        FlatCutoffPotential(v0=-1.0, Lambda=1.0)


def test_tabulated_roundtrip_and_bounds():
    k = np.linspace(0.0, 5.0, 41)
    vals = np.exp(-0.3 * k ** 2)
    t = TabulatedPotential(k, vals)
    # nodes reproduce exactly, midpoints interpolate monotonically
    assert t.vhat(k[7]) == pytest.approx(vals[7], rel=1e-14)
    mid = t.vhat(0.5 * (k[3] + k[4]))
    assert vals[4] <= mid <= vals[3]
    with pytest.raises(ExtrapolationError):
        t.vhat(5.1)
    with pytest.raises(DomainError):
        t.vhat(-0.2)


DATA = os.path.join(os.path.dirname(__file__), "data")
TABLES = {"maxon": maxon_roton_table(), "concave": concave_table()}


def _assert_scalar_matches_array(model, k):
    """Scalar vhat and dvhat are Python floats equal in every bit to the
    single-element array path."""
    for method in (model.vhat, model.dvhat):
        got = method(k)
        want = float(method(np.array([k]))[0])
        assert type(got) is float
        assert got.hex() == want.hex(), (method.__name__, k)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_tabulated_scalar_path_bitwise_at_nodes(name):
    model = TABLES[name]
    nodes = model.grid.tolist()
    points = ([0.0, model.k_max, model.k_max * (1.0 + 1e-12)] + nodes
              + [math.nextafter(x, 0.0) for x in nodes])
    for k in points:
        _assert_scalar_matches_array(model, k)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_tabulated_scalar_path_bitwise_random(data):
    model = TABLES[data.draw(st.sampled_from(sorted(TABLES)))]
    k = data.draw(st.floats(0.0, model.k_max * (1.0 + 1e-12)))
    _assert_scalar_matches_array(model, k)


@pytest.mark.parametrize("k", [1, np.float64(0.37), np.array(0.37), np.array(2)])
def test_tabulated_other_scalar_types_return_float(k):
    model = TABLES["maxon"]
    for method in (model.vhat, model.dvhat):
        got = method(k)
        assert type(got) is float
        assert got.hex() == method(float(k)).hex()


def test_tabulated_scalar_bounds_and_nan():
    model = TABLES["concave"]
    beyond = math.nextafter(model.k_max * (1.0 + 1e-12), math.inf)
    for method in (model.vhat, model.dvhat):
        for bad in (-1e-300, -1.0, -math.inf):
            with pytest.raises(DomainError):
                method(bad)
        for bad in (beyond, math.inf):
            with pytest.raises(ExtrapolationError) as scalar:
                method(bad)
            with pytest.raises(ExtrapolationError) as array:
                method(np.array([bad]))
            assert str(scalar.value) == str(array.value)
        assert math.isnan(method(math.nan))
        assert math.isnan(method(np.array([math.nan]))[0])


# tables whose first end slope takes one limiter of _pchip_slopes each: the
# three point slope has the wrong sign and becomes 0, or it overshoots
# three times the first secant, where the secants change sign
END_LIMITED = {
    "end_slope_zero": ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.1, 3.0, 3.2, 3.3]),
    "end_slope_3m0": ([0.0, 1.0, 1.2, 2.0, 3.0], [1.0, 2.0, 1.0, 0.9, 0.85]),
}


@pytest.mark.parametrize("name", ["maxon", "dip_profile", *END_LIMITED])
def test_tabulated_matches_scipy_pchip(name):
    """vhat and dvhat, floats and arrays, equal in every bit what scipy's
    PchipInterpolator and its derivative() give on the same table, k =
    k_max included."""
    if name == "maxon":
        model = TABLES["maxon"]
    elif name in END_LIMITED:
        model = TabulatedPotential(*END_LIMITED[name])
    else:
        model = load_tabulated(os.path.join(DATA, "dip_profile.dat"))
    ref = PchipInterpolator(model.grid, model.values, extrapolate=False)
    grid = model.grid
    ks = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]),
                         np.random.default_rng(3).random(500) * model.k_max,
                         [model.k_max, model.k_max * (1.0 + 1e-12)]])
    want = ref(np.minimum(ks, model.k_max))
    dwant = ref.derivative()(np.minimum(ks, model.k_max))
    for method, expect in ((model.vhat, want), (model.dvhat, dwant)):
        assert method(ks).tobytes() == expect.tobytes()
        floats = np.array([method(float(k)) for k in ks])
        assert floats.tobytes() == expect.tobytes()


def test_tabulated_validation_errors():
    with pytest.raises(ParameterError):
        TabulatedPotential([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])     # too short
    with pytest.raises(ParameterError):
        TabulatedPotential([0.1, 1.0, 2.0, 3.0], [1, 1, 1, 1])   # not from 0
    with pytest.raises(ParameterError):
        TabulatedPotential([0.0, 1.0, 1.0, 3.0], [1, 1, 1, 1])   # repeated k


def test_load_tabulated(tmp_path):
    p = tmp_path / "pot.txt"
    p.write_text("# sample profile\n"
                 "0.0 1.0\n"
                 "0.5 0.9   # trailing comment\n"
                 "\n"
                 "1.0 0.7\n"
                 "2.0 0.3\n")
    t = load_tabulated(p)
    assert t.vhat0 == 1.0
    assert t.k_max == 2.0
    assert t.vhat(1.0) == pytest.approx(0.7)


def test_load_tabulated_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0.0 1.0 9.0\n")
    with pytest.raises(ParameterError) as e:
        load_tabulated(p)
    assert "1" in str(e.value)           # line number in the message
    p.write_text("0.0 abc\n")
    with pytest.raises(ParameterError):
        load_tabulated(p)
    p.write_text("# only comments\n")
    with pytest.raises(ParameterError):
        load_tabulated(p)


def test_evaluate_vhat_wrapper():
    m = GaussianPotential(v=0.1, nu=1.0)
    assert evaluate_vhat(m, 0.5) == pytest.approx(m.vhat(0.5))
    with pytest.raises(DomainError):
        evaluate_vhat(m, -1.0)


def test_validator_gaussian_passes_inside_window():
    for two_v in (0.05, 0.2, 0.5, 0.8, 0.99):
        params, model = gaussian_setup(beta_nu=10.0, two_v_over_nu=two_v)
        report = validate_assumptions(model, params)
        assert report.passed, report.text()


def test_validator_curvature_witness():
    params, model = gaussian_setup(beta_nu=10.0, two_v_over_nu=0.4)
    report = validate_assumptions(model, params)
    curv = [e for e in report.entries if e.id == "A7"][0]
    assert curv.passed
    assert "0.6" in curv.note            # 1 - 2 v / nu at this setting


def test_validator_concave_table_fails_curvature():
    model = concave_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    report = validate_assumptions(model, params)
    assert not report.passed
    ids = {e.id for e in report.failures()}
    assert "A7" in ids
    curv = [e for e in report.entries if e.id == "A7"][0]
    assert curv.witness is not None


def test_validator_flat_infinite_fails_tail():
    model = FlatCutoffPotential(v0=1.0, Lambda=float("inf"))
    params = make_params(nu=1.0, beta=10.0, vhat0=1.0)
    report = validate_assumptions(model, params)
    tail = [e for e in report.entries if e.id == "A2"][0]
    assert not tail.passed
    assert tail.witness is not None


def test_validator_finite_cutoff_flat_passes():
    model = FlatCutoffPotential(v0=1.0, Lambda=4.0)
    params = make_params(nu=1.0, beta=10.0, vhat0=1.0)
    report = validate_assumptions(model, params)
    assert report.passed, report.text()


@pytest.mark.parametrize("cutoff", ["1e200", "1e300"])
def test_validator_huge_flat_cutoff_passes_without_warnings(capsys, cutoff):
    """The probe grid reaches 2.5 cutoff, where k^2 overflows and the
    vhat beyond 2 cutoff is 0.  A2 once read that as inf * 0 = nan and
    failed, with numpy overflow warnings (a traceback under -W error)."""
    model = FlatCutoffPotential(v0=1.0, Lambda=float(cutoff))
    params = make_params(nu=1.0, beta=10.0, vhat0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_assumptions(model, params)
        assert report.passed, report.text()
        assert main(["validate", "--potential", "flat", "--cutoff",
                     cutoff]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_validator_maxon_roton_counts_sign_changes():
    model = maxon_roton_table()
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    report = validate_assumptions(model, params)
    assert report.sign_changes == 2


def test_validator_report_text_mentions_caveat():
    params, model = gaussian_setup(beta_nu=10.0)
    report = validate_assumptions(model, params)
    txt = report.text()
    assert "nu" in txt and "PASS" in txt
    assert "smaller interaction strength" in txt


def test_probe_grid_shape():
    params, model = gaussian_setup(beta_nu=10.0)
    grid = default_probe_grid(model, params, n=64)
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    assert grid.size == 64


def test_validator_table_below_stability_threshold_fails_positivity(
        tmp_path, capsys):
    """A table that dips to -10 at k = 1, nu = 1, lies below the stability
    threshold -vhat0 k^2 / (2 nu) = -0.5 there: A3 fails with a witness
    (k, vhat, threshold) that has vhat <= threshold, and validate exits 2."""
    grid = np.linspace(0.0, 4.0, 17)
    values = np.exp(-0.5 * grid ** 2)
    values[4] = -10.0                                # k = 1
    model = TabulatedPotential(grid, values)
    params = make_params(nu=1.0, beta=10.0, vhat0=model.vhat0)
    report = validate_assumptions(model, params)
    a3 = [e for e in report.entries if e.id == "A3"][0]
    assert not a3.passed and not report.passed
    k, vhat, threshold = a3.witness
    assert 0.0 < k < 2.0
    assert vhat == model.vhat(k)
    assert threshold == -model.vhat0 * k ** 2 / 2.0
    assert vhat <= threshold
    path = tmp_path / "dip.dat"
    path.write_text("".join(f"{float(k)!r} {float(v)!r}\n"
                            for k, v in zip(grid, values)))
    assert main(["validate", "--potential", "tabulated", "--table",
                 str(path)]) == 2
    assert "A3    FAIL  witness=" in capsys.readouterr().out
