"""A noise probe of the quadrature's error bars, from an exact scaling.

For the Gaussian at fixed v/nu, vhat depends on k only through
k/sqrt(nu), so rate / (vhat0 nu^(3/2)) is a function of (v/nu,
k/sqrt(nu), beta nu) alone.  Evaluating one point at nu = 1e-8, 1 and
1e8 leaves that value alone and moves the rounding.  The statistic is
the largest |v_i - v_j| / (bar_i + bar_j) over the pairs of scaled
values and bars: above 1, at least one evaluation lies outside its own
bar, which shows an understated bar without a reference value.

The rows are the README sweep's 54 rates (Gaussian v = 0.1 nu, k/sqrt(nu)
log:1e-3:0.2:9, beta nu 50, 200 and 1000, both processes) and five more
points with a 40-digit reference.  FLAGGED lists the rows whose
statistic exceeds 1 today; every one of them is converged=True.  A row
that starts to flag fails, and so does a listed row that stops: the
list only shrinks, and each shrink is an edit here.
"""
import itertools
import math

import numpy as np
import pytest

from bogodamp.damping import gamma_beliaev_quadrature, gamma_landau_quadrature
from bogodamp.params import make_params
from bogodamp.potential import GaussianPotential

NUS = (1e-8, 1.0, 1e8)
README_ROWS = [(process, beta_nu, float(x))
               for beta_nu in (50.0, 200.0, 1000.0)
               for x in np.geomspace(1e-3, 0.2, 9)
               for process in ("beliaev", "landau")]
EXTRA_ROWS = [("landau", 1e6, 0.05), ("landau", 200.0, 0.1),
              ("landau", 50.0, 0.05), ("landau", 2000.0, 0.05),
              ("beliaev", 1e3, 0.3)]


def _key(process, beta_nu, x):
    return f"{process} {beta_nu:g} {x:.4g}"


# (process, beta nu, k/sqrt(nu)) of the rows above 1, with the statistic
# as measured when the list was written
FLAGGED = {
    "beliaev 50 0.001": 14.95,
    "landau 50 0.001": 2.093,
    "beliaev 50 0.001939": 73.25,
    "beliaev 50 0.003761": 340.1,
    "beliaev 50 0.007293": 258.4,
    "beliaev 50 0.01414": 431.9,
    "beliaev 50 0.02742": 89.63,
    "beliaev 50 0.05318": 15.8,
    "landau 50 0.05318": 1.168,
    "beliaev 50 0.1031": 3.614,
    "beliaev 200 0.001": 14.95,
    "landau 200 0.001": 6.027,
    "beliaev 200 0.001939": 73.25,
    "landau 200 0.001939": 14.42,
    "beliaev 200 0.003761": 342.2,
    "landau 200 0.003761": 9.057,
    "beliaev 200 0.007293": 259.7,
    "landau 200 0.007293": 13.91,
    "beliaev 200 0.01414": 429.3,
    "landau 200 0.01414": 15.77,
    "beliaev 200 0.02742": 80.1,
    "landau 200 0.02742": 5.537,
    "landau 200 0.05318": 6.081,
    "beliaev 1000 0.001": 14.92,
    "landau 1000 0.001": 52.48,
    "beliaev 1000 0.001939": 73.12,
    "landau 1000 0.001939": 207.5,
    "beliaev 1000 0.003761": 388.0,
    "landau 1000 0.003761": 372.4,
    "beliaev 1000 0.007293": 67.17,
    "beliaev 1000 0.01414": 2.263,
    "landau 1000 0.01414": 127.9,
    "landau 1000 0.05318": 120.5,
    "landau 1e+06 0.05": 9.843,
    "landau 200 0.1": 3.571,
    "landau 50 0.05": 1.082,
}


def _probe(process, beta_nu, x):
    """(statistic, converged at every nu) of one row."""
    rate = (gamma_beliaev_quadrature if process == "beliaev"
            else gamma_landau_quadrature)
    scaled = []
    converged = True
    for nu in NUS:
        model = GaussianPotential(v=0.1 * nu, nu=nu)
        params = make_params(nu=nu, beta=beta_nu / nu, vhat0=model.vhat0)
        r = rate(params, model, x * math.sqrt(nu))
        s = model.vhat0 * nu ** 1.5
        scaled.append((r.value / s, r.abs_error / s))
        converged = converged and r.converged
    worst = max((abs(a - b) / (ea + eb) if a != b else 0.0)
                for (a, ea), (b, eb) in itertools.combinations(scaled, 2))
    return worst, converged


def test_rows_are_the_readme_sweep_and_the_extra_points():
    keys = [_key(*row) for row in README_ROWS + EXTRA_ROWS]
    assert len(README_ROWS) == 54 and len(set(keys)) == len(keys) == 59
    assert set(FLAGGED) <= set(keys)


@pytest.mark.parametrize("row", README_ROWS + EXTRA_ROWS,
                         ids=lambda row: _key(*row).replace(" ", "_"))
def test_flagged_rows_are_the_known_ones(row):
    stat, converged = _probe(*row)
    key = _key(*row)
    assert converged
    if key in FLAGGED:
        assert stat > 1.0, (
            f"{key} no longer flags ({stat:.4g}): remove it from FLAGGED")
    else:
        assert stat <= 1.0, (
            f"{key} flags at {stat:.4g}: a bar understates the noise")
