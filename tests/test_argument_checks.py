"""The finite-and-sign checks of scalar and array arguments.

Each public entry point below rejects a non-finite or negative argument,
and zero where it wants a positive one, with DomainError and the exact
message pinned here: the momentum k of the rates, the oracle, the
closed-form laws, the coefficients and the dispersion, omega(k) where the
profile makes it non-finite, the energies of the vertex F, the thermal
occupation's energy, the flat kernel's z and the special functions'
theta.  An entry that also takes arrays names no value.
"""
import math

import numpy as np
import pytest

from bogodamp import bogoliubov, damping, specfun, vertices
from bogodamp.errors import DomainError
from bogodamp.params import make_params
from bogodamp.potential import GaussianPotential, PotentialModel, evaluate_vhat

MODEL = GaussianPotential(v=0.1, nu=1.0)
PARAMS = make_params(nu=1.0, beta=10.0, vhat0=MODEL.vhat0)
BAD = (math.nan, math.inf, -1.0)
STRICT = BAD + (0.0,)


class _Constant(PotentialModel):
    """A profile equal to a constant, here a non-finite one."""

    kind = "constant"
    vhat0 = 1.0

    def __init__(self, value):
        self.value = value

    def vhat(self, k):
        return self.value


# entry point, its message with {} for the value, the values it refuses
CASES = {
    "quadrature_k": (
        lambda x: damping.gamma_beliaev_quadrature(PARAMS, MODEL, x),
        "k must be finite and > 0, got {}", STRICT),
    "scan_k": (
        lambda x: damping.reduce_delta_generic(PARAMS, MODEL, x, "landau"),
        "k must be finite and > 0, got {}", STRICT),
    "oracle_k": (
        lambda x: damping.mc_oracle(PARAMS, MODEL, x, "landau"),
        "k must be finite and > 0, got {}", STRICT),
    "omega_k": (
        lambda x: damping.gamma_landau_quadrature(PARAMS, _Constant(x), 0.3),
        "omega_k must be finite and >= 0, got {}", BAD[:2]),
    "asymptotic_k": (
        lambda x: damping.gamma_landau_asymptotic(PARAMS, MODEL, x, "full"),
        "k must be finite and >= 0, got {}", BAD),
    "regime_k": (
        lambda x: damping.select_regime(PARAMS, MODEL, x, "beliaev"),
        "k must be finite and >= 0, got {}", BAD),
    "flat_law_k": (
        lambda x: damping.gamma_landau_flat_highT(PARAMS, x),
        "k must be finite and >= 0, got {}", BAD),
    "flat_kernel_z": (
        damping.flat_highT_kernel, "z must be finite and >= 0, got {}", BAD),
    "bogo_coeffs_k": (
        lambda x: bogoliubov.bogo_coeffs(PARAMS, MODEL, x),
        "k must be finite and >= 0, got {}", BAD),
    "occupation_omega": (
        lambda x: bogoliubov.occupation_rho(PARAMS, x),
        "omega must be finite and > 0, got {}", STRICT),
    "omega_bg_k": (
        lambda x: bogoliubov.omega_bg(PARAMS, MODEL, x),
        "k must be finite and >= 0", BAD),
    "omega_bg_prime_k": (
        lambda x: bogoliubov.omega_bg_prime(PARAMS, MODEL, x),
        "k must be finite and >= 0", BAD),
    "evaluate_vhat_k": (
        lambda x: evaluate_vhat(MODEL, x), "k must be finite and >= 0", BAD),
    "F_omega": (
        lambda x: vertices.regularized_F(PARAMS, MODEL, x, 0.1, 0.1),
        "omega must be finite and >= 0, got {}", BAD),
    "F_u": (
        lambda x: vertices.regularized_F(PARAMS, MODEL, 0.2, x, 0.1),
        "u must be finite and >= 0, got {}", BAD),
    "F_w": (
        lambda x: vertices.regularized_F(PARAMS, MODEL, 0.2, 0.1, x),
        "w must be finite and >= 0, got {}", BAD),
    "beliaev_I_theta": (
        specfun.beliaev_I, "theta must be finite and >= 0, got {}", BAD),
    "beliaev_I_quadrature_theta": (
        specfun.beliaev_I_quadrature, "theta must be finite and >= 0, got {}",
        BAD),
    "landau_Gk_theta": (
        lambda x: specfun.landau_Gk(3, x),
        "theta must be finite and >= 0, got {}", BAD),
    "landau_Gk_quadrature_theta": (
        lambda x: specfun.landau_Gk_quadrature(3, x),
        "theta must be finite and >= 0, got {}", BAD),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name in sorted(CASES) for value in CASES[name][2]])
def test_bad_scalar_raises_domain_error_with_its_message(name, value):
    entry, message, _values = CASES[name]
    with pytest.raises(DomainError) as info:
        entry(value)
    assert info.type is DomainError
    assert str(info.value) == message.format(value)


@pytest.mark.parametrize("name", ["omega_bg_k", "omega_bg_prime_k",
                                  "evaluate_vhat_k"])
@pytest.mark.parametrize("value", BAD)
def test_bad_array_raises_domain_error_with_its_message(name, value):
    entry, message, _values = CASES[name]
    with pytest.raises(DomainError) as info:
        entry(np.array([0.5, value]))
    assert info.type is DomainError
    assert str(info.value) == message
