"""Three quasiparticle interaction vertices, in momentum and in energy form.

The momentum space vertices j and kappa carry the 1/sqrt(k) coefficient
singularities of the small momentum limit.  In the energy variables those
factors cancel: regularized_F(omega; u, w) is the combination
sqrt(8 omega u w) sqrt(nu / vhat0) * j evaluated on shell, finite down to
zero energy, vanishing exactly on the lines u = omega, w = 0 and
u = 0, w = omega, and symmetric under swapping u and w as computed.

The effective potentials V and U act on momentum vectors; their pair
symmetrisation reproduces j and their six term alternating sum reproduces
kappa, which the test suite checks on random configurations.
"""
from __future__ import annotations

import math

import numpy as np

from .bogoliubov import bogo_coeffs, energy_point, first_branch
from .errors import DomainError, RangeError, SingularityError
from .params import GasParameters
from .potential import PotentialModel

__all__ = ["vertex_j", "vertex_kappa", "eff_V", "eff_U", "regularized_F", "G_of"]


def _shape(model, x):
    return model.vhat(x) / model.vhat0


def _cs(params, model, k):
    # difference c - s rationalized through c^2 - s^2 = 1
    s, c = bogo_coeffs(params, model, k)
    return s, c, 1.0 / (c + s)


def _positive(name, val):
    val = float(val)
    if not math.isfinite(val) or val <= 0:
        raise SingularityError(
            f"{name} must be a positive momentum, got {val}; zero momentum "
            "legs are handled by regularized_F")
    return val


def vertex_j(params: GasParameters, model: PotentialModel,
             k: float, p: float, q: float) -> float:
    """Decay vertex j(k; p, q) for one quasiparticle splitting into two.

    Symmetric in (p, q).  Scales like sqrt(nu vhat0); each leg carries a
    1/sqrt momentum factor, so all three momenta must be positive.
    """
    k = _positive("k", k)
    p = _positive("p", p)
    q = _positive("q", q)
    sk, ck, dk = _cs(params, model, k)
    sp, cp, dp = _cs(params, model, p)
    sq, cq, dq = _cs(params, model, q)
    pref = math.sqrt(params.nu * params.vhat0)
    t1 = -_shape(model, k) * dk * (cp * sq + cq * sp)
    t2 = _shape(model, p) * dp * (ck * cq + sk * sq)
    t3 = _shape(model, q) * dq * (ck * cp + sk * sp)
    return pref * (t1 + (t2 + t3))


def vertex_kappa(params: GasParameters, model: PotentialModel,
                 k: float, p: float, q: float) -> float:
    """Cubic vertex kappa(k, p, q), fully symmetric, coupling fixed to one."""
    k = _positive("k", k)
    p = _positive("p", p)
    q = _positive("q", q)
    sk, ck, dk = _cs(params, model, k)
    sp, cp, dp = _cs(params, model, p)
    sq, cq, dq = _cs(params, model, q)
    pref = math.sqrt(params.nu * params.vhat0)
    t1 = _shape(model, k) * dk * (cp * sq + cq * sp)
    t2 = _shape(model, p) * dp * (ck * sq + sk * cq)
    t3 = _shape(model, q) * dq * (cp * sk + sp * ck)
    return -pref * (t1 + (t2 + t3))


def eff_V(params: GasParameters, model: PotentialModel, p_vec, q_vec) -> float:
    """Effective potential V on a pair of momentum vectors.

    Depends on |p|, |q| and |p + q|; V(p, q) + V(q, p) equals
    j(|p + q|; |p|, |q|).
    """
    p_vec = np.asarray(p_vec, dtype=float)
    q_vec = np.asarray(q_vec, dtype=float)
    p = _positive("|p|", float(np.linalg.norm(p_vec)))
    q = _positive("|q|", float(np.linalg.norm(q_vec)))
    r = _positive("|p+q|", float(np.linalg.norm(p_vec + q_vec)))
    sp, cp, dp = _cs(params, model, p)
    sq, cq, _ = _cs(params, model, q)
    sr, cr, dr = _cs(params, model, r)
    pref = math.sqrt(params.nu * params.vhat0)
    return pref * (_shape(model, p) * dp * (cq * cr + sq * sr)
                   - _shape(model, r) * dr * sp * cq)


def eff_U(params: GasParameters, model: PotentialModel, p_vec, q_vec) -> float:
    """Effective potential U on a pair of momentum vectors.

    The six term alternating sum of U over the momentum splittings of a
    triangle reproduces kappa.
    """
    p_vec = np.asarray(p_vec, dtype=float)
    q_vec = np.asarray(q_vec, dtype=float)
    p = _positive("|p|", float(np.linalg.norm(p_vec)))
    q = _positive("|q|", float(np.linalg.norm(q_vec)))
    r = _positive("|p+q|", float(np.linalg.norm(p_vec + q_vec)))
    sp, cp, _ = _cs(params, model, p)
    sq, cq, _ = _cs(params, model, q)
    sr, cr, _ = _cs(params, model, r)
    pref = math.sqrt(params.nu * params.vhat0)
    return pref * _shape(model, p) * (cr * sp * sq - sr * cp * cq)


# ---------------------------------------------------------------------------
# energy space form


def F_terms(O, a, b):
    """The three terms of F from energy_point tuples at omega, u and w.

    F(omega; u, w) is their sum; callers choose the summation order.
    """
    cO, sO, dO, nO, _ = O
    ca, sa, da, na, _ = a
    cb, sb, db, nb, _ = b
    return (-nO * dO * (ca * sb + cb * sa),
            na * da * (cO * cb + sO * sb),
            nb * db * (cO * ca + sO * sa))


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
    vals = {}
    for name, val in (("omega", omega), ("u", u), ("w", w)):
        val = float(val)
        if not math.isfinite(val) or val < 0:
            raise DomainError(f"{name} must be finite and >= 0, got {val}")
        vals[name] = val
    omega, u, w = vals["omega"], vals["u"], vals["w"]
    need = max(omega, u, w)
    branch = first_branch(params, model, need)
    if need > branch.omega_max * (1.0 + 1e-12):
        raise RangeError(
            f"energy {need} beyond the first branch, which tops out at "
            f"{branch.omega_max}")
    t1, t2, t3 = F_terms(energy_point(params, model, branch, omega),
                         energy_point(params, model, branch, u),
                         energy_point(params, model, branch, w))
    # t1 + (t2 + t3) keeps F exactly symmetric under swapping u and w
    return t1 + (t2 + t3)


def G_of(params: GasParameters, model: PotentialModel, u: float, w: float) -> float:
    """On shell squared vertex G(u, w) = F(u + w; u, w)^2.

    Behaves like (9/nu) u^2 w^2 (u + w)^2 at small energies.
    """
    F = regularized_F(params, model, float(u) + float(w), u, w)
    return F * F


# ---------------------------------------------------------------------------
# array evaluation for the Monte Carlo oracle


def _cs_arrays(params, model, x):
    """(c, s, c - s, shape, omega) arrays at positive momenta x."""
    x = np.asarray(x, dtype=float)
    sh = model.vhat(x) / model.vhat0
    nk = params.nu * sh
    w = np.sqrt(np.maximum(x * x * (0.25 * x * x + nk), 0.0))
    E = 0.5 * x * x + nk
    c = np.sqrt((E + w) / (2.0 * w))
    s = np.abs(nk) / np.sqrt(2.0 * w * (E + w))
    return c, s, 1.0 / (c + s), sh, w


def _j_arrays(params, model, k, p, q):
    """vertex_j on arrays of momenta, no validation (Monte Carlo hot path)."""
    ck, sk, dk, shk, _ = _cs_arrays(params, model, k)
    cp, sp, dp, shp, _ = _cs_arrays(params, model, p)
    cq, sq, dq, shq, _ = _cs_arrays(params, model, q)
    pref = math.sqrt(params.nu * params.vhat0)
    return pref * (-shk * dk * (cp * sq + cq * sp)
                   + shp * dp * (ck * cq + sk * sq)
                   + shq * dq * (ck * cp + sk * sp))
