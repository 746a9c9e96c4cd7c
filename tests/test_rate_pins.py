"""Exact outcomes of the rate layer on a fixed set of calls.

Each call below names a rate function, a model, nu, beta nu, k/sqrt(nu)
and the extra positional arguments.  tests/data/rate_pins.json holds, for
each, the repr of (value, abs_error, converged, method, segments) of a
DampingResult, the repr of a closed-form float, or the type and message
of the exception raised.  The pins were taken before the quadrature
rates, the momentum scan and the closed-form laws were folded into one
entry each; they hold every route to the bit.
"""
import functools
import json
import math
import os

import pytest

from bogodamp import damping
from bogodamp.damping import DampingResult
from bogodamp.params import make_params
from bogodamp.potential import (FlatCutoffPotential, GaussianPotential,
                                load_tabulated)
from conftest import concave_table, maxon_roton_table

DATA = os.path.join(os.path.dirname(__file__), "data")


def _model(name, nu):
    if name == "gaussian":
        return GaussianPotential(v=0.1 * nu, nu=nu)
    if name == "flat_cutoff":
        return FlatCutoffPotential(v0=0.8, Lambda=1.5)
    if name == "concave":
        return concave_table()
    if name == "maxon":
        return maxon_roton_table()
    if name == "dip":
        return load_tabulated(os.path.join(DATA, "dip_profile.dat"))
    raise KeyError(name)


# name -> (function, model, nu, beta nu, k/sqrt(nu), extra arguments)
CALLS = {
    "gauss_b_bn50_x1e-3": ("gamma_beliaev_quadrature", "gaussian", 1.0, 50.0, 1e-3, ()),
    "gauss_l_bn50_x1e-3": ("gamma_landau_quadrature", "gaussian", 1.0, 50.0, 1e-3, ()),
    "gauss_b_bn10_x0.3": ("gamma_beliaev_quadrature", "gaussian", 1.0, 10.0, 0.3, ()),
    "gauss_l_bn10_x0.3": ("gamma_landau_quadrature", "gaussian", 1.0, 10.0, 0.3, ()),
    "gauss_b_bn1e4_x1e-6": ("gamma_beliaev_quadrature", "gaussian", 1.0, 1e4, 1e-6, ()),
    "gauss_l_bn1e4_x1e-6": ("gamma_landau_quadrature", "gaussian", 1.0, 1e4, 1e-6, ()),
    "gauss_scan_l_bn10_x0.3": ("reduce_delta_generic", "gaussian", 1.0, 10.0, 0.3,
                               ("landau",)),
    "flat_cutoff_b": ("gamma_beliaev_quadrature", "flat_cutoff", 1.0, 10.0, 0.3, ()),
    "flat_cutoff_l": ("gamma_landau_quadrature", "flat_cutoff", 1.0, 10.0, 0.3, ()),
    "concave_b_empty": ("gamma_beliaev_quadrature", "concave", 1.0, 10.0, 0.3, ()),
    "maxon_b_empty": ("gamma_beliaev_quadrature", "maxon", 1.0, 4.0, 0.05, ()),
    "maxon_scan_b_empty": ("reduce_delta_generic", "maxon", 1.0, 4.0, 0.05,
                           ("beliaev",)),
    "maxon_b_fallback": ("gamma_beliaev_quadrature", "maxon", 1.0, 4.0, 0.2, ()),
    "maxon_l_fallback": ("gamma_landau_quadrature", "maxon", 1.0, 4.0, 0.2, ()),
    "maxon_b_singular_root": ("gamma_beliaev_quadrature", "maxon", 1.0, 4.0, 2.26, ()),
    "dip_l_unconverged": ("gamma_landau_quadrature", "dip", 1.0, 4.0, 0.4, ()),
    "bad_k": ("gamma_landau_quadrature", "gaussian", 1.0, 10.0, -1.0, ()),
    "bad_process": ("reduce_delta_generic", "gaussian", 1.0, 10.0, 0.3, ("phonon",)),
    "closed_b_full_nu2": ("gamma_beliaev_asymptotic", "gaussian", 2.0, 10.0, 0.3,
                          ("full",)),
    "closed_b_low_T_nu2": ("gamma_beliaev_asymptotic", "gaussian", 2.0, 10.0, 0.3,
                           ("low_T",)),
    "closed_b_high_T_nu2": ("gamma_beliaev_asymptotic", "gaussian", 2.0, 10.0, 0.3,
                            ("high_T",)),
    "closed_l_full_nu2": ("gamma_landau_asymptotic", "gaussian", 2.0, 10.0, 0.3,
                          ("full",)),
    "closed_l_high_T_ratio_nu2": ("gamma_landau_asymptotic", "gaussian", 2.0, 10.0,
                                  0.3, ("high_T_ratio",)),
    "closed_l_low_T_ratio_nu2": ("gamma_landau_asymptotic", "gaussian", 2.0, 10.0,
                                 0.3, ("low_T_ratio",)),
    "closed_l_bad_regime_nu2": ("gamma_landau_asymptotic", "gaussian", 2.0, 10.0,
                                0.3, ("low_T",)),
    "closed_flat_highT_nu2": ("gamma_landau_flat_highT", None, 2.0, 10.0, 0.3, ()),
}


def outcome(name):
    """The pinned string of one call: a repr, or 'Type: message'."""
    fn, model_name, nu, beta_nu, x, extra = CALLS[name]
    model = _model(model_name or "gaussian", nu)
    params = make_params(nu=nu, beta=beta_nu / nu, vhat0=model.vhat0)
    k = x * math.sqrt(nu)
    args = (params, k) if model_name is None else (params, model, k)
    try:
        res = getattr(damping, fn)(*args, *extra)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(res, DampingResult):
        res = (res.value, res.abs_error, res.converged, res.method,
               res.support.segments)
    return repr(res)


@functools.lru_cache(maxsize=None)
def _pins():
    with open(os.path.join(DATA, "rate_pins.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_rate_outcome_is_pinned(name):
    assert outcome(name) == _pins()[name]
