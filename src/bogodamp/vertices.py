"""Three quasiparticle interaction vertices, in momentum and in energy form.

The momentum space vertices j and kappa carry the 1/sqrt(k) coefficient
singularities of the small momentum limit.  They read the Bogoliubov
coefficients from bogoliubov._coeffs, one vhat call per momentum, once
_leg_coeffs has checked every momentum positive.

In the energy variables the 1/sqrt(k) factors cancel: regularized_F(omega;
u, w) is the combination sqrt(8 omega u w) sqrt(nu / vhat0) * j evaluated
on shell, finite down to zero energy, vanishing exactly on the lines
u = omega, w = 0 and u = 0, w = omega, and symmetric under swapping u and
w as computed.

j, F and kappa share one three-term kernel, _vertex: F is it on
energy_point tuples, and _j is sqrt(nu vhat0) times it on _coeffs tuples,
which vertex_j, the Monte Carlo oracle's _j_arrays and the generic
momentum scan all feed, so every route evaluates the same vertex.  kappa
is minus _j with s and c swapped and c - s negated at k; floating point
sums and products commute and negation is exact, so that is the
written-out kappa sum to the bit.

The effective potentials V and U act on momentum vectors, through
_leg_coeffs at |p|, |q| and |p + q|; their pair symmetrisation
reproduces j and their six term alternating sum reproduces kappa, which
the test suite checks on random configurations.
"""
from __future__ import annotations

import math

import numpy as np

from .bogoliubov import _coeffs, energy_point, first_branch
from .errors import DomainError, RangeError, SingularityError
from .params import GasParameters
from .potential import PotentialModel

__all__ = ["vertex_j", "vertex_kappa", "eff_V", "eff_U", "regularized_F", "G_of"]


def _positive(name, val):
    val = float(val)
    if not math.isfinite(val) or val <= 0:
        raise SingularityError(
            f"{name} must be a positive momentum, got {val}; zero momentum "
            "legs are handled by regularized_F")
    return val


def _leg_coeffs(params, model, legs, names=("k", "p", "q")):
    """The _coeffs tuples at the momenta legs, each checked positive under
    its name before the first profile call."""
    xs = [_positive(name, x) for name, x in zip(names, legs)]
    return [_coeffs(params, model, x) for x in xs]


def _pair_coeffs(params, model, p_vec, q_vec):
    """_leg_coeffs at |p|, |q| and |p + q| of two momentum vectors."""
    p_vec = np.asarray(p_vec, dtype=float)
    q_vec = np.asarray(q_vec, dtype=float)
    norms = map(np.linalg.norm, (p_vec, q_vec, p_vec + q_vec))
    return _leg_coeffs(params, model, norms, ("|p|", "|q|", "|p+q|"))


def _vertex(K, P, Q):
    """The sum t1 + (t2 + t3) of j and F, exactly symmetric in P and Q.

    K, P and Q are tuples led by (s, c, d, n), read by index: _coeffs
    tuples (floats or arrays) for j, energy_point tuples for F.
    """
    t1 = -K[3] * K[2] * (P[1] * Q[0] + Q[1] * P[0])
    t2 = P[3] * P[2] * (K[1] * Q[1] + K[0] * Q[0])
    t3 = Q[3] * Q[2] * (K[1] * P[1] + K[0] * P[0])
    return t1 + (t2 + t3)


def _j(params, K, P, Q):
    """j(k; p, q) from _coeffs tuples at k, p and q, floats or arrays."""
    return math.sqrt(params.nu * params.vhat0) * _vertex(K, P, Q)


def vertex_j(params: GasParameters, model: PotentialModel,
             k: float, p: float, q: float) -> float:
    """Decay vertex j(k; p, q) for one quasiparticle splitting into two.

    Symmetric in (p, q).  Scales like sqrt(nu vhat0); each leg carries a
    1/sqrt momentum factor, so all three momenta must be positive.
    """
    return _j(params, *_leg_coeffs(params, model, (k, p, q)))


def vertex_kappa(params: GasParameters, model: PotentialModel,
                 k: float, p: float, q: float) -> float:
    """Cubic vertex kappa(k, p, q), fully symmetric, coupling fixed to one.

    Minus j with the tuple at k read as (c, s, -(c - s), vhat(k)/vhat0):
    the three terms of kappa are those of _vertex with s and c swapped at k.
    """
    (s, c, d, n), P, Q = _leg_coeffs(params, model, (k, p, q))
    return -_j(params, (c, s, -d, n), P, Q)


def eff_V(params: GasParameters, model: PotentialModel, p_vec, q_vec) -> float:
    """Effective potential V on a pair of momentum vectors.

    Depends on |p|, |q| and |p + q|; V(p, q) + V(q, p) equals
    j(|p + q|; |p|, |q|).
    """
    (sp, cp, dp, shp), (sq, cq, _, _), (sr, cr, dr, shr) = _pair_coeffs(
        params, model, p_vec, q_vec)
    pref = math.sqrt(params.nu * params.vhat0)
    return pref * (shp * dp * (cq * cr + sq * sr) - shr * dr * sp * cq)


def eff_U(params: GasParameters, model: PotentialModel, p_vec, q_vec) -> float:
    """Effective potential U on a pair of momentum vectors.

    The six term alternating sum of U over the momentum splittings of a
    triangle reproduces kappa.
    """
    (sp, cp, _, shp), (sq, cq, _, _), (sr, cr, _, _) = _pair_coeffs(
        params, model, p_vec, q_vec)
    pref = math.sqrt(params.nu * params.vhat0)
    return pref * shp * (cr * sp * sq - sr * cp * cq)


# ---------------------------------------------------------------------------
# energy space form


def regularized_F(params: GasParameters, model: PotentialModel,
                  omega: float, u: float, w: float) -> float:
    """Energy space vertex F(omega; u, w) on the first dispersion branch.

    Finite for all energies >= 0 inside the branch range, symmetric in
    (u, w) exactly as computed, and exactly zero on the lines
    (u, w) = (omega, 0) and (0, omega).  On shell (omega = u + w) it
    approaches 3 u w (u + w)/sqrt(nu) as the energies go to zero.  An
    energy at a stationary top of the branch raises SingularMeasureError
    from energy_point, which also evaluates the measure factor there.
    """
    omega, u, w = float(omega), float(u), float(w)
    for name, val in (("omega", omega), ("u", u), ("w", w)):
        if not math.isfinite(val) or val < 0:
            raise DomainError(f"{name} must be finite and >= 0, got {val}")
    need = max(omega, u, w)
    branch = first_branch(params, model, need)
    if need > branch.omega_max * (1.0 + 1e-12):
        raise RangeError(
            f"energy {need} beyond the first branch, which tops out at "
            f"{branch.omega_max}")
    return _vertex(energy_point(params, model, branch, omega),
                   energy_point(params, model, branch, u),
                   energy_point(params, model, branch, w))


def G_of(params: GasParameters, model: PotentialModel, u: float, w: float) -> float:
    """On shell squared vertex G(u, w) = F(u + w; u, w)^2.

    Behaves like (9/nu) u^2 w^2 (u + w)^2 at small energies.
    """
    F = regularized_F(params, model, float(u) + float(w), u, w)
    return F * F


# ---------------------------------------------------------------------------
# the Monte Carlo oracle's entry to j


def _j_arrays(params, model, k, p, q):
    """vertex_j without validation, each momentum a float or an array.

    The Monte Carlo oracle's hot path; it evaluates j by the same _j and
    _coeffs as vertex_j, so on equal momenta the two agree wherever the
    model's float and array profiles do.
    """
    return _j(params, _coeffs(params, model, k), _coeffs(params, model, p),
              _coeffs(params, model, q))
