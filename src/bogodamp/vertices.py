"""Three quasiparticle interaction vertices, in momentum and in energy form.

The momentum space vertices j and kappa carry the 1/sqrt(k) coefficient
singularities of the small momentum limit.  They read the Bogoliubov
coefficients from bogoliubov._coeffs, one vhat call per momentum.  The
three term formula of j is written once, in _j, which takes _coeffs
tuples: vertex_j feeds it validated floats, _j_arrays, the Monte Carlo
oracle's entry, feeds it arrays, and the generic momentum scan feeds it
the tuples it builds from the profile values it already holds, so the
scan, the oracle and vertex_j evaluate the same vertex.

In the energy variables the 1/sqrt(k) factors cancel: regularized_F(omega;
u, w) is the combination sqrt(8 omega u w) sqrt(nu / vhat0) * j evaluated
on shell, finite down to zero energy, vanishing exactly on the lines
u = omega, w = 0 and u = 0, w = omega, and symmetric under swapping u and
w as computed.

The effective potentials V and U act on momentum vectors; their pair
symmetrisation reproduces j and their six term alternating sum reproduces
kappa, which the test suite checks on random configurations.
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


def _j(params, K, P, Q):
    """j(k; p, q) from _coeffs tuples at k, p and q, floats or arrays."""
    sk, ck, dk, shk = K
    sp, cp, dp, shp = P
    sq, cq, dq, shq = Q
    pref = math.sqrt(params.nu * params.vhat0)
    t1 = -shk * dk * (cp * sq + cq * sp)
    t2 = shp * dp * (ck * cq + sk * sq)
    t3 = shq * dq * (ck * cp + sk * sp)
    return pref * (t1 + (t2 + t3))


def vertex_j(params: GasParameters, model: PotentialModel,
             k: float, p: float, q: float) -> float:
    """Decay vertex j(k; p, q) for one quasiparticle splitting into two.

    Symmetric in (p, q).  Scales like sqrt(nu vhat0); each leg carries a
    1/sqrt momentum factor, so all three momenta must be positive.
    """
    k = _positive("k", k)
    p = _positive("p", p)
    q = _positive("q", q)
    return _j(params, _coeffs(params, model, k), _coeffs(params, model, p),
              _coeffs(params, model, q))


def vertex_kappa(params: GasParameters, model: PotentialModel,
                 k: float, p: float, q: float) -> float:
    """Cubic vertex kappa(k, p, q), fully symmetric, coupling fixed to one."""
    k = _positive("k", k)
    p = _positive("p", p)
    q = _positive("q", q)
    sk, ck, dk, shk = _coeffs(params, model, k)
    sp, cp, dp, shp = _coeffs(params, model, p)
    sq, cq, dq, shq = _coeffs(params, model, q)
    pref = math.sqrt(params.nu * params.vhat0)
    t1 = shk * dk * (cp * sq + cq * sp)
    t2 = shp * dp * (ck * sq + sk * cq)
    t3 = shq * dq * (cp * sk + sp * ck)
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
    sp, cp, dp, shp = _coeffs(params, model, p)
    sq, cq, _, _ = _coeffs(params, model, q)
    sr, cr, dr, shr = _coeffs(params, model, r)
    pref = math.sqrt(params.nu * params.vhat0)
    return pref * (shp * dp * (cq * cr + sq * sr) - shr * dr * sp * cq)


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
    sp, cp, _, shp = _coeffs(params, model, p)
    sq, cq, _, _ = _coeffs(params, model, q)
    sr, cr, _, _ = _coeffs(params, model, r)
    pref = math.sqrt(params.nu * params.vhat0)
    return pref * shp * (cr * sp * sq - sr * cp * cq)


# ---------------------------------------------------------------------------
# energy space form


def _F(O, a, b):
    """F(omega; u, w) from energy_point tuples at omega, u and w.

    Summed as t1 + (t2 + t3), which is exactly symmetric under swapping
    the tuples a and b.
    """
    cO, sO, dO, nO, _ = O
    ca, sa, da, na, _ = a
    cb, sb, db, nb, _ = b
    t1 = -nO * dO * (ca * sb + cb * sa)
    t2 = na * da * (cO * cb + sO * sb)
    t3 = nb * db * (cO * ca + sO * sa)
    return t1 + (t2 + t3)


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
    return _F(energy_point(params, model, branch, omega),
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
