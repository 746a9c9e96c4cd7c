"""Bogoliubov excitation spectrum and damping rates for a weakly
interacting Bose gas at positive temperature.

The public surface: parameter containers, potential profiles with their
assumption checks, the dispersion and its branch inversion, interaction
vertices, the special functions entering the closed form rate laws, and
the damping rates themselves by quadrature, asymptotics and Monte Carlo.
"""

from .params import GasParameters, RegimeDiagnostics, diagnostics, make_params
from .errors import (AssumptionError, BogodampError, DomainError,
                     ExtrapolationError, IntegrandError, NearSingularRootError,
                     ParameterError, RangeError, SingularityError,
                     SingularMeasureError, SupportError)
from .numerics import QuadratureSpec, QuadResult, integrate_adaptive
from .potential import (AssumptionCheck, AssumptionReport, FlatCutoffPotential,
                        GaussianPotential, PotentialModel, TabulatedPotential,
                        evaluate_vhat, load_tabulated, validate_assumptions)
from .bogoliubov import (DispersionBranch, bogo_coeffs, branch_table,
                         detect_branches, first_branch, invert_dispersion,
                         measure_factor_f, occupation_rho, omega_bg,
                         omega_bg_prime)
from .vertices import (G_of, eff_U, eff_V, regularized_F, vertex_j,
                       vertex_kappa)
from .specfun import (beliaev_I, beliaev_I_quadrature, landau_Gk,
                      landau_Gk_quadrature, polylog, zeta)
from .damping import (DampingResult, DeltaSupport, detect_support,
                      flat_highT_kernel, flat_highT_kernel_integral,
                      gamma_beliaev_asymptotic, gamma_beliaev_quadrature,
                      gamma_landau_asymptotic, gamma_landau_flat_highT,
                      gamma_landau_quadrature, mc_oracle,
                      reduce_delta_generic, select_regime, total_damping)

__version__ = "0.1.0"

__all__ = [
    "GasParameters", "RegimeDiagnostics", "diagnostics", "make_params",
    "BogodampError", "ParameterError", "DomainError", "SingularityError",
    "RangeError", "ExtrapolationError", "SingularMeasureError",
    "AssumptionError", "SupportError",
    "NearSingularRootError", "IntegrandError",
    "QuadratureSpec", "QuadResult", "integrate_adaptive",
    "PotentialModel", "GaussianPotential", "FlatCutoffPotential",
    "TabulatedPotential", "load_tabulated", "evaluate_vhat",
    "AssumptionCheck", "AssumptionReport", "validate_assumptions",
    "DispersionBranch", "omega_bg", "omega_bg_prime", "bogo_coeffs",
    "occupation_rho", "detect_branches", "branch_table", "first_branch",
    "invert_dispersion", "measure_factor_f",
    "vertex_j", "vertex_kappa", "eff_V", "eff_U", "regularized_F", "G_of",
    "zeta", "polylog", "beliaev_I", "beliaev_I_quadrature", "landau_Gk",
    "landau_Gk_quadrature",
    "DeltaSupport", "DampingResult", "detect_support",
    "gamma_beliaev_quadrature", "gamma_landau_quadrature",
    "reduce_delta_generic", "gamma_beliaev_asymptotic",
    "gamma_landau_asymptotic", "select_regime", "flat_highT_kernel",
    "flat_highT_kernel_integral", "gamma_landau_flat_highT", "mc_oracle",
    "total_damping",
    "__version__",
]
