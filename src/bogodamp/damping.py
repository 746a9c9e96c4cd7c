"""Beliaev and Landau damping rates of quasiparticle excitations.

Three independent evaluation routes are implemented and cross validated:

  * energy path quadrature: the azimuthal angle and the conservation delta
    are removed analytically, leaving a single integral over an energy
    split variable with the regularized vertex F and the measure factor
    f(u) = d(p^2)/d(u^2).  This is the production route on the first
    (convex) dispersion branch.
  * generic scan: an outer integral over the partner momentum p with the
    conservation roots in q resolved branch by branch at each node.
    Slower, but valid for non monotone dispersions (maxon and roton
    style models) and used to validate the energy path.
  * closed form asymptotics for the limiting regimes, and a Monte Carlo
    estimate of the raw three dimensional integral with a mollified
    delta, both anchoring the quadrature routes from opposite sides.

Both quadrature routes, and with them gamma_*_quadrature and
reduce_delta_generic, enter through _quadrature_rate, which builds a
DampingResult on the record detect_support returns: the one place that
validates k and the process and takes omega(k), for every route.  The
closed-form laws share _closed_form_scales.

Overall constants trace back to the golden rule rates
gamma_B = (1/(16 pi^2)) int d3p j(k;p,q)^2 delta(...) T_B and
gamma_L = (1/(8 pi^2)) int d3p j(q;k,p)^2 delta(...) T_L with q the third
leg momentum; the angular reduction d3p = (2 pi p q / k) dp dq turns them
into the (1/(8 pi k)) and (1/(4 pi k)) double integrals the scan uses,
and the change of variables to energies gives the energy path constants.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .bogoliubov import (branch_table, energy_point, invert_dispersion,
                         omega_bg, _coeff_kernel, _coeffs, _dispersion,
                         _dispersion_and_slope, _invert, _omega_and_slope,
                         _omega_scalar)
from .errors import IntegrandError, ParameterError, _checked_finite
from .numerics import QuadratureSpec, integrate_adaptive
from .params import GasParameters, RegimeDiagnostics, diagnostics
from .potential import PotentialModel
from .specfun import beliaev_I, landau_Gk, zeta
from .vertices import _j, _j_arrays, _vertex

__all__ = [
    "DeltaSupport",
    "DampingResult",
    "detect_support",
    "gamma_beliaev_quadrature",
    "gamma_landau_quadrature",
    "reduce_delta_generic",
    "gamma_beliaev_asymptotic",
    "gamma_landau_asymptotic",
    "select_regime",
    "flat_highT_kernel",
    "flat_highT_kernel_integral",
    "gamma_landau_flat_highT",
    "mc_oracle",
    "total_damping",
]

# thermal integrals are cut where the occupation weight has decayed to
# exp(-T_CUT) below its scale; theta shifts the cut for the Landau weight
T_CUT = 50.0


def _check_process(process):
    if process not in ("beliaev", "landau"):
        raise ParameterError(f"process must be beliaev or landau, got {process!r}")


def _landau_t_max(beta, w_k):
    """Upper cut of the Landau variable t = beta u at theta = beta w_k."""
    return max(T_CUT, beta * w_k + 40.0)


def _w_beliaev(beta, u, w):
    """On shell decay weight 1 + rho(u) + rho(w), overflow free."""
    du = -math.expm1(-beta * u)
    dw = -math.expm1(-beta * w)
    return -math.expm1(-beta * (u + w)) / (du * dw)


def _w_landau(t, theta):
    """On shell absorption weight rho(u) - rho(u + omega), overflow free.

    With t = beta u and theta = beta omega it is W(t) = e^-t (1 - e^-theta)
    / ((1 - e^-t)(1 - e^-t-theta)); omega enters through theta alone, so
    no energy difference is formed.
    """
    return (math.exp(-t) * -math.expm1(-theta)
            / ((-math.expm1(-t)) * (-math.expm1(-t - theta))))


@dataclass(frozen=True)
class DeltaSupport:
    """Resolved support of the conservation delta in the partner momentum.

    segments are (p_lo, p_hi, roots) stretches with at least one
    conservation root, ascending; a Landau support ends at the thermal
    cutoff.  branches is the branch table the roots were counted on, each
    root owned by one branch (_owns), and both routes evaluate on it: the
    energy path on a single branch, else the generic scan, which resolves
    its roots on the same table by the same ownership.
    omega_k is omega(k) for every route.  Supports compare by process, k
    and segments.
    """

    process: str
    k: float
    segments: tuple
    branches: tuple = field(compare=False)
    omega_k: float = field(compare=False)


@dataclass(frozen=True)
class DampingResult:
    value: float
    abs_error: float
    method: str
    diagnostics: RegimeDiagnostics
    support: DeltaSupport
    converged: bool = True


def _owns(branch, t):
    """Whether branch owns the root of omega(q) = t, t a float or an array.

    A branch owns the momenta [p_lo, p_hi): the targets [omega_min,
    omega_max) on an increasing branch and (omega_min, omega_max] on a
    decreasing one, so a target at a maxon or roton energy has one root.
    """
    if branch.increasing:
        return (branch.omega_min <= t) & (t < branch.omega_max)
    return (branch.omega_min < t) & (t <= branch.omega_max)


def _resolve_roots(branches, target, q_lo, q_hi):
    """All momenta q in [q_lo, q_hi] with omega(q) = target, ascending, as
    the root kernel's (q, vhat(q), vhat'(q)): one on each branch that
    owns the target (_owns)."""
    slack = 1e-9 * (1.0 + q_hi)
    out = []
    for b in branches:
        if _owns(b, target):
            root = _invert(b, target)
            if q_lo - slack <= root[0] <= q_hi + slack:
                out.append(root)
    return out


def _root_counts(params, model, branches, process, k, w_k, p):
    """Conservation root counts at partner momenta p, a float or an array:
    the number of roots _resolve_roots finds, counted without inverting.

    A branch that owns the target t (_owns) is monotone, so its root lies
    in the window [a, b] = [|p - k| - slack, p + k + slack] exactly when
    sign t lies in [sign omega(a), sign omega(b)], with a and b clamped to
    the branch and sign omega increasing along it.  A b below the branch
    counts nothing: clamped to p_lo, it would count a target at the energy
    of p_lo, which the branch owns.  A target t <= 0 has no root.
    """
    wp = _omega_scalar(params, model, p)
    t = w_k - wp if process == "beliaev" else w_k + wp
    q_hi = p + k
    slack = 1e-9 * (1.0 + q_hi)
    a = abs(p - k) - slack
    b = q_hi + slack
    if isinstance(p, np.ndarray):
        clip, some = np.clip, np.any
    else:
        def clip(x, lo, hi):
            return min(max(x, lo), hi)
        some = bool
    counts = 0
    for br in branches:
        owned = _owns(br, t)
        if not some(owned):
            continue
        sign = 1.0 if br.increasing else -1.0
        tg = sign * t
        ga = sign * _omega_scalar(params, model, clip(a, br.p_lo, br.p_hi))
        gb = sign * _omega_scalar(params, model, clip(b, br.p_lo, br.p_hi))
        counts = counts + (owned & (ga <= tg) & (tg <= gb) & (b >= br.p_lo))
    return counts * (t > 0.0)


def detect_support(params: GasParameters, model: PotentialModel, k: float,
                   process: str) -> DeltaSupport:
    """Locate the stretches of partner momentum carrying conservation roots.

    The one place a quadrature rate validates k and the process and takes
    omega(k); a non-finite omega(k) raises DomainError.  For the decay
    process the partner runs over [0, k]; for absorption it runs to the
    thermal cutoff momentum, the one inversion made here.  Root counts
    are sampled on an interior grid of 255 points (one array call of
    _root_counts) and count transitions are refined by 48 bisection
    steps (float calls), so narrow support slivers below the grid
    resolution would be missed; for convex dispersions the count is
    constant and the support is the full interval.
    """
    k = _checked_finite("k", k, positive=True)
    _check_process(process)
    w_k = _checked_finite("omega_k", _omega_scalar(params, model, k))
    beta = params.beta
    p_lo = 0.0
    if process == "beliaev":
        energy_need, p_hi = w_k, k
    else:
        u_cut = _landau_t_max(beta, w_k) / beta
        energy_need = u_cut + w_k
    branches = tuple(branch_table(params, model, energy_need))
    if process == "landau":
        last = branches[-1]
        if last.increasing and last.omega_min <= u_cut <= last.omega_max:
            p_hi = invert_dispersion(last, u_cut)
        else:
            p_hi = last.p_hi

    def count(p):
        return _root_counts(params, model, branches, process, k, w_k, p)

    n = 255
    ps = np.linspace(p_lo, p_hi, n + 2)[1:-1]
    cs = count(ps).tolist()

    edges = [p_lo]
    for i in range(len(ps) - 1):
        if cs[i] != cs[i + 1]:
            lo, hi = float(ps[i]), float(ps[i + 1])
            clo = cs[i]
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                if count(mid) == clo:
                    lo = mid
                else:
                    hi = mid
            edges.append(0.5 * (lo + hi))
    edges.append(p_hi)
    segments = []
    for a, b in zip(edges[:-1], edges[1:]):
        cmid = count(0.5 * (a + b))
        if cmid > 0:
            segments.append((a, b, cmid))
    return DeltaSupport(process, k, tuple(segments), branches, w_k)


def _integrate_pieces(f, pieces, quad):
    """(value, error, all ok) of integrate_adaptive summed over (a, b) pieces."""
    val = err = 0.0
    ok = True
    for (a, b) in pieces:
        res = integrate_adaptive(f, a, b, quad)
        val += res.value
        err += res.error
        ok = ok and res.ok
    return val, err, ok


def gamma_beliaev_quadrature(params: GasParameters, model: PotentialModel,
                             k: float,
                             quad: QuadratureSpec | None = None) -> DampingResult:
    """Decay rate by the reduced energy split quadrature.

    gamma_B = vhat0/(128 pi nu k omega) * integral over y in [-omega, omega]
    of f(u) f(w) F(omega; u, w)^2 (1 + rho(u) + rho(w)) with u, w the
    energy split (omega +- y)/2.  Falls back to the generic scan when the
    support leaves the first branch.
    """
    return _quadrature_rate(params, model, k, "beliaev", quad, False)


def gamma_landau_quadrature(params: GasParameters, model: PotentialModel,
                            k: float,
                            quad: QuadratureSpec | None = None) -> DampingResult:
    """Absorption rate by the reduced thermal quadrature.

    gamma_L = vhat0/(32 pi nu k omega beta) * integral over t in (0, t_max)
    of G(t/beta, omega) f(u) f(u + omega) W(t) with u = t/beta and the
    overflow free weight W(t) = e^-t (1 - e^-theta) /
    ((1 - e^-t)(1 - e^-t-theta)).  The integrand vanishes linearly at
    t = 0 and the truncated exponential tail is added to the error bound.
    """
    return _quadrature_rate(params, model, k, "landau", quad, False)


def reduce_delta_generic(params: GasParameters, model: PotentialModel,
                         k: float, process: str) -> DampingResult:
    """Rate by the generic partner momentum scan, valid on any branch layout.

    The conservation delta is resolved at every outer node by inverting
    the dispersion branch by branch; each root q contributes
    q j^2 W / |omega'(q)|.  Next to a stationary point of the dispersion
    that weight has an integrable inverse square root singularity; where
    the quadrature cannot resolve it, the result says converged=False.
    """
    return _quadrature_rate(params, model, k, process, None, True)


def _quadrature_rate(params, model, k, process, quad, scan):
    """The one entry of both quadrature rates and of the momentum scan.

    Every route reads k, omega(k) and the process from detect_support's
    record.  An empty support is a true zero.  The scan runs when asked
    for or on a multi-branch support, else the process's energy path on
    its branch; the method names the route asked for unless the scan ran.
    """
    support = detect_support(params, model, k, process)
    diag = diagnostics(params, support.k, support.omega_k)
    method = "generic_scan" if scan else "energy_quadrature"
    if not support.segments:
        value, error, ok = 0.0, 0.0, True
    else:
        route = _ENERGY_PATHS[support.process]
        if scan or len(support.branches) > 1:
            method, route = "generic_scan", _generic_scan
        value, error, ok = route(params, model, quad, support)
    return DampingResult(value, error, method, diag, support, ok)


def _beliaev_energy_path(params, model, quad, support):
    """(value, error, ok) of gamma_beliaev_quadrature on the first branch.

    The integrand is a function of the sorted energy pair (u, w) alone,
    bit for bit: -y swaps u and w exactly, and f(u) f(w), _vertex (in P
    and Q) and _w_beliaev are exactly symmetric.  So the rate keeps each
    pair's value, and a node mirrored about y = 0, which the quadrature
    rule and its bisections place for every node of a symmetric piece,
    takes no energy point of its own.
    """
    k, w_k, branch = support.k, support.omega_k, support.branches[0]
    pO = energy_point(params, model, branch, w_k)
    beta = params.beta
    seen = {}

    def gy(y):
        u = 0.5 * (w_k + y)
        w = 0.5 * (w_k - y)
        if u <= 0.0 or w <= 0.0:
            return 0.0
        pair = (u, w) if u <= w else (w, u)
        val = seen.get(pair)
        if val is None:
            pu = energy_point(params, model, branch, u)
            pw = energy_point(params, model, branch, w)
            F = _vertex(pO, pu, pw)
            val = seen[pair] = pu[4] * pw[4] * F * F * _w_beliaev(beta, u, w)
        return val

    pieces = [(2.0 * _omega_scalar(params, model, pa) - w_k,
               2.0 * _omega_scalar(params, model, pb) - w_k)
              for (pa, pb, _m) in support.segments]
    val, err, ok = _integrate_pieces(gy, pieces, quad)
    C = params.vhat0 / (128.0 * math.pi * params.nu * k * w_k)
    return C * val, C * err, ok


def _landau_energy_path(params, model, quad, support):
    """(value, error, ok) of gamma_landau_quadrature on the first branch."""
    k, w_k, branch = support.k, support.omega_k, support.branches[0]
    beta = params.beta
    theta = beta * w_k
    pk = energy_point(params, model, branch, w_k)

    def gt(t):
        if t <= 0.0:
            return 0.0
        u = t / beta
        pu = energy_point(params, model, branch, u)
        pw = energy_point(params, model, branch, u + w_k)
        F = _vertex(pw, pu, pk)
        return F * F * pu[4] * pw[4] * _w_landau(t, theta)

    pieces = [(beta * _omega_scalar(params, model, pa),
               beta * _omega_scalar(params, model, pb))
              for (pa, pb, _m) in support.segments]
    val, err, ok = _integrate_pieces(gt, pieces, quad)
    C = params.vhat0 / (32.0 * math.pi * params.nu * k * w_k * beta)
    err += 2.0 * abs(gt(pieces[-1][1]))
    return C * val, C * err, ok


_ENERGY_PATHS = {"beliaev": _beliaev_energy_path,
                 "landau": _landau_energy_path}


def _generic_scan(params, model, quad, support):
    """(value, error, ok) of the momentum scan on a non-empty support.

    Roots are resolved on support.branches, the table detect_support
    counted them on and the energy paths evaluate on.  Each node
    evaluates the profile once at p, for omega(p) and the coefficients at
    p; at each root q the pair (vhat, vhat') the root kernel returns
    gives |omega'(q)| and the coefficients at q, with no evaluation of
    its own.  omega(k) comes from the support and the coefficients at k
    are taken once per rate.  They feed vertices._j in the order
    vertex_j gives them, so the integrand is vertex_j's to the bit.
    """
    k, w_k, branches = support.k, support.omega_k, support.branches
    beta = params.beta
    theta = beta * w_k
    nu, v0 = params.nu, model.vhat0
    beliaev = support.process == "beliaev"
    ck = _coeffs(params, model, k)

    def inner(p):
        if p <= 0.0:
            return 0.0
        vp = model.vhat(p)
        wp = _dispersion(p, nu * vp / v0)[0]
        tgt = w_k - wp if beliaev else w_k + wp
        cp = None
        tot = 0.0
        for q, vq, dvq in _resolve_roots(branches, tgt, abs(p - k), p + k):
            if q <= 0.0:
                continue
            wq, slope = _dispersion_and_slope(nu, v0, q, vq, dvq)
            if cp is None:
                cp = _coeff_kernel(params, model, p, vp, wp)
            cq = _coeff_kernel(params, model, q, vq, wq)
            if beliaev:
                jv = _j(params, ck, cp, cq)
                wgt = _w_beliaev(beta, wp, tgt)
            else:
                jv = _j(params, cq, cp, ck)
                wgt = _w_landau(beta * wp, theta)
            tot += q * jv * jv * wgt / abs(slope)
        return p * tot

    val, err, ok = _integrate_pieces(
        inner, [(pa, pb) for (pa, pb, _m) in support.segments], quad)
    C = 1.0 / ((8.0 if beliaev else 4.0) * math.pi * k)
    if not beliaev:
        pb = support.segments[-1][1]
        slope_b = abs(_omega_and_slope(params, model, pb)[1])
        if slope_b > 0:
            err += 2.0 * abs(inner(pb)) / (beta * slope_b)
    return C * val, C * err, ok


# ---------------------------------------------------------------------------
# closed form asymptotics


def _closed_form_scales(params, k):
    """(k, vhat0 nu^{3/2}, k/sqrt(nu), beta nu) of the closed-form laws;
    DomainError unless k is finite and >= 0."""
    k = _checked_finite("k", k)
    nu = params.nu
    rt = math.sqrt(nu)
    return k, params.vhat0 * nu * rt, k / rt, params.beta * nu


def gamma_beliaev_asymptotic(params: GasParameters, model: PotentialModel,
                             k: float, regime: str = "full") -> float:
    """Closed form decay rate laws for the phonon part of the spectrum.

    full:   (9 vhat0 nu^{3/2} / 2048 pi) (k/sqrt nu)^4 I(theta) / (beta nu)
    low_T:  (3 vhat0 nu^{3/2} / 640 pi) (k/sqrt nu)^5
    high_T: (3 vhat0 nu^{3/2} / 128 pi) (k/sqrt nu)^4 / (beta nu)
    with theta = beta omega(k).  k = 0 gives 0 in every regime.
    """
    k, base, x, bn = _closed_form_scales(params, k)
    if regime == "low_T":
        return 3.0 / (640.0 * math.pi) * base * x ** 5
    if regime == "high_T":
        return 3.0 / (128.0 * math.pi) * base * x ** 4 / bn
    if regime == "full":
        if k == 0.0:
            return 0.0
        theta = params.beta * _omega_scalar(params, model, k)
        return 9.0 / (2048.0 * math.pi) * base * x ** 4 * beliaev_I(theta) / bn
    raise ParameterError(f"unknown regime {regime!r}")


def gamma_landau_asymptotic(params: GasParameters, model: PotentialModel,
                            k: float, regime: str = "full") -> float:
    """Closed form absorption rate laws for the phonon part of the spectrum.

    full: (9 vhat0 nu^{3/2} / 64 pi) (beta nu)^-5 [ G4(theta)
            + 2 (beta sqrt(nu) k) G3(theta) + (beta sqrt(nu) k)^2 G2(theta) ]
    high_T_ratio: (3 pi^3 vhat0 nu^{3/2} / 40) (k/sqrt nu) (beta nu)^-4
    low_T_ratio:  (9 zeta(3) vhat0 nu^{3/2} / 16 pi) (k^2/nu) (beta nu)^-3
    with theta = beta omega(k) evaluated on the model dispersion.
    """
    k, base, x, bn = _closed_form_scales(params, k)
    if regime == "high_T_ratio":
        return 3.0 * math.pi ** 3 / 40.0 * base * x / bn ** 4
    if regime == "low_T_ratio":
        return 9.0 * zeta(3) / (16.0 * math.pi) * base * x * x / bn ** 3
    if regime == "full":
        if k == 0.0:
            return 0.0
        theta = params.beta * _omega_scalar(params, model, k)
        bk = params.beta * math.sqrt(params.nu) * k
        bracket = (landau_Gk(4, theta) + 2.0 * bk * landau_Gk(3, theta)
                   + bk * bk * landau_Gk(2, theta))
        return 9.0 / (64.0 * math.pi) * base * bracket / bn ** 5
    raise ParameterError(f"unknown regime {regime!r}")


def select_regime(params: GasParameters, model: PotentialModel, k: float,
                  process: str) -> str:
    """Pick the closed form regime from beta sqrt(nu) k; k as for the laws."""
    _check_process(process)
    k = _closed_form_scales(params, k)[0]
    g = params.beta * math.sqrt(params.nu) * k
    if process == "beliaev":
        return "low_T" if g >= 3.0 else "high_T"
    if g <= 0.3:
        return "high_T_ratio"
    if g >= 3.0:
        return "low_T_ratio"
    return "full"


# ---------------------------------------------------------------------------
# flat profile, high temperature


def flat_highT_kernel(z: float) -> float:
    """Dimensionless absorption kernel of the flat profile at high T.

    kernel(z) = [2 - 2/e - 3/(2 e^2) + 1/e^3 + 1/(2 e^4)]/z^2 with
    e = sqrt(1 + z^2); behaves like (9/8) z^2 at small z and 2/z^2 at
    large z, and integrates to 3 pi / 8 over (0, inf).  Below z = 0.05
    the bracket is evaluated by its series (9/8) z^4 - (33/16) z^6
    + (373/128) z^8 to sidestep cancellation.
    """
    z = _checked_finite("z", z)
    if z == 0.0:
        return 0.0
    w = z * z
    if z < 0.05:
        return w * (9.0 / 8.0 + w * (-33.0 / 16.0 + w * 373.0 / 128.0))
    inv = 1.0 / math.sqrt(1.0 + w)
    bracket = 2.0 + inv * (-2.0 + inv * (-1.5 + inv * (1.0 + inv * 0.5)))
    return bracket / w


def flat_highT_kernel_integral() -> float:
    """Quadrature value of the kernel integral, analytically 3 pi / 8."""
    spec = QuadratureSpec(rel_tol=1e-10, tail_scale=2.0)
    return integrate_adaptive(flat_highT_kernel, 0.0, math.inf, spec).value


def gamma_landau_flat_highT(params: GasParameters, k: float) -> float:
    """High temperature absorption law for the exactly flat profile.

    (3 vhat0 nu^{3/2} / 32) (1/(beta nu)) (k/sqrt nu): the kernel
    integral 3 pi / 8 with all constants collected.
    """
    _k, _base, x, bn = _closed_form_scales(params, k)
    # not (3/32) * base, which rounds differently
    return (3.0 / 32.0) * params.vhat0 * params.nu * math.sqrt(params.nu) * x / bn


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def _mc_thermal_beliaev(beta, wk, wp, wq):
    """Off shell decay weight (1 - e^{-beta S/2})^2 / prod(1 - e^{-beta w}),
    S the energy sum; equals the on shell weight when S = 2 wk."""
    s = wk + wp + wq
    num = -np.expm1(-0.5 * beta * s)
    den = (-np.expm1(-beta * wk)) * (-np.expm1(-beta * wp)) * (-np.expm1(-beta * wq))
    return num * num / den


def _mc_thermal_landau(beta, wk, wp, wq):
    """Off shell absorption weight, exponent shifted so nothing overflows."""
    x = 0.5 * beta * (wk + wq)
    y = 0.5 * beta * wp
    m = np.maximum(x, y)
    num = -np.expm1(-np.abs(x - y))
    den = (-np.expm1(-beta * wk)) * (-np.expm1(-beta * wp)) * (-np.expm1(-beta * wq))
    return np.exp(2.0 * m - beta * (wk + wp + wq)) * num * num / den


# Fewest samples mc_oracle accepts; the CLI checks --samples against it.
MC_MIN_SAMPLES = 10_000
# Samples per counter-keyed stream chunk: fixes which numbers are drawn.
_MC_CHUNK = 1_000_000
# Window draws evaluated at once: keeps temporaries in cache, draws
# nothing.
_MC_BLOCK = 1 << 13
# Cells of u0, the radius draw, in the draw-space window; a power of two,
# so int(u0 * cells) is exact.
_WINDOW_CELLS = 4096
# Cells of q^2 in the window's table.  Cells are at least _MIN_NORMAL wide.
_Q2_CELLS = 4096
_MIN_NORMAL = 2.0 ** -1022
# Smallest theta = beta omega(k) mc_oracle accepts.  Its thermal weights
# square a numerator of about theta and divide by three factors
# 1 - exp(-beta w) of about beta w each, at most theta apiece on a decay;
# at theta = 1e-100 that product, 1e-300, is still a normal float.  The
# Gaussian v = 0.1 decay at k = 0.3 returns inf from theta = 3e-111 and
# nan from 3e-166.
_MC_MIN_THETA = 1e-100
# Below this decay radius 4 pi R^3, the largest radius weight, is finite.
_MC_MAX_RADIUS = (sys.float_info.max / (4.0 * math.pi)) ** (1.0 / 3.0)


def _too_hot(beta, why):
    return ParameterError(
        f"beta = {beta:g} is too small for the Monte Carlo oracle: {why}")


def _cell_bounds(branches, x, w):
    """(lo, hi) with lo[i] <= omega(p) <= hi[i] on the cell [x[i], x[i + 1]]
    of ascending momenta x with energies w.

    On a cell inside one monotone branch of `branches` omega lies between
    the end energies, widened by a relative 1e-9 for the rounding of the
    energies (a tabulated profile's cubic cancels near a soft roton) and
    of the momenta drawn in the cell, which can land an ulp outside it.
    A cell that crosses a branch end, and an entry appended past the
    last cell, bound nothing (-inf, inf).
    """
    inside = np.zeros(len(x) - 1, dtype=bool)
    for b in branches:
        inside |= (x[:-1] >= b.p_lo) & (x[1:] <= b.p_hi)
    wa, wb = w[:-1], w[1:]
    pad = 1e-9 * np.maximum(wa, wb)
    lo = np.where(inside, np.minimum(wa, wb) - pad, -np.inf)
    hi = np.where(inside, np.maximum(wa, wb) + pad, np.inf)
    return np.append(lo, -np.inf), np.append(hi, np.inf)


def _window(params, model, branches, r, q_top, w_k, width, k, absorb):
    """(lo, hi): per cell a of u0, a u1 interval [lo[a], hi[a]] in [0, 1]
    outside which no draw has |S - w_k| < width, with lo[a] = hi[a] for a
    cell none of whose draws has; S = omega(q) + omega(r), or omega(q) -
    omega(r) on an absorption, and r holds the radii of the _WINDOW_CELLS
    + 1 cell edges of u0.

    Bounds of omega on each cell's radii [r[a], r[a + 1]] and on
    _Q2_CELLS cells of q^2 in [0, q_top^2] give two checks (rt, qt, lim)
    that a draw of u0 cell a and q^2 cell j can pass only if rt[a] +
    qt[j] <= lim; q^2 cells past the branch table, and the entry past
    the q^2 table, bound nothing.  The width is widened by 1e-9 width and
    8 ulp of the largest energy sum, for the rounding of z.  The hull of
    the q^2 cells that can pass both checks comes from prefix and suffix
    minima; widened by one cell, it maps to cos theta by interval
    arithmetic on q^2 = r^2 + k^2 -+ 2 r k cos theta, then to u1 = (cos
    theta + 1) / 2, widened by 1e-9.  The q^2 interval is open above
    where the entry past the q^2 table can pass and the cell's largest
    q^2, (r + k)^2, reaches it.  A cell whose radius reaches 0, or whose
    interval is not a number, gets [0, 1].  Run under np.errstate:
    extreme inputs overflow here harmlessly.
    """
    r_lo, r_hi = _cell_bounds(branches, r, _omega_scalar(params, model, r))
    h2 = max(q_top * q_top / _Q2_CELLS, _MIN_NORMAL)
    p_hi = branches[-1].p_hi
    m = int(min(_Q2_CELLS, p_hi * p_hi / h2))  # entry m is past the table
    xq = np.sqrt(np.arange(m + 1) * h2)
    q_lo, q_hi = _cell_bounds(branches, xq, _omega_scalar(params, model, xq))
    w_top = max(float(np.max(t[np.isfinite(t)], initial=0.0))
                for t in (r_hi, q_hi))
    width += 1e-9 * width + 8.0 * math.ulp(w_k + 2.0 * w_top)
    top, bot = w_k + width, w_k - width
    if absorb:
        checks = ((r_lo, -q_hi, -bot), (-r_hi, q_lo, top))
    else:
        checks = ((r_lo, q_lo, top), (-r_hi, -q_hi, -bot))
    j_lo, j_hi, clip = 0, m - 1, True
    for rt, qt, lim in checks:
        q_lim = lim - rt[:-1]
        pre = np.minimum.accumulate(qt[:m])
        suf = np.minimum.accumulate(qt[:m][::-1])[::-1]
        j_lo = np.maximum(j_lo, np.searchsorted(-pre, -q_lim))
        j_hi = np.minimum(j_hi, np.searchsorted(suf, q_lim, "right") - 1)
        clip = clip & (qt[m] <= q_lim)
    r0, r1 = r[:-1], r[1:]
    is_open = clip & ((r1 + k) ** 2 >= (m - 1) * h2)
    j_lo = np.where(j_lo > j_hi, m, j_lo)
    s_lo = np.maximum(j_lo - 1, 0) * h2
    s_hi = np.where(is_open, np.inf, (j_hi + 2) * h2)
    kk = k * k
    if absorb:
        n_lo, n_hi = s_lo - r1 * r1 - kk, s_hi - r0 * r0 - kk
    else:
        n_lo, n_hi = r0 * r0 + kk - s_hi, r1 * r1 + kk - s_lo
    d_lo, d_hi = 2.0 * k * r0, 2.0 * k * r1
    lo = 0.5 * (n_lo / np.where(n_lo < 0, d_lo, d_hi) + 1.0) - 1e-9
    hi = 0.5 * (n_hi / np.where(n_hi < 0, d_hi, d_lo) + 1.0) + 1e-9
    every = ~(d_lo >= _MIN_NORMAL) | np.isnan(lo) | np.isnan(hi)
    lo = np.where(every, 0.0, np.clip(lo, 0.0, 1.0))
    hi = np.where(every, 1.0, np.clip(hi, 0.0, 1.0))
    return lo, np.where((j_lo == m) & ~is_open, lo, np.maximum(hi, lo))


def _window_samples(window, key, m):
    """Blocks (a, t, u1) of the draws among m uniform (u0, u1) that fall
    in the window (lo, hi): cell a, t = u0 cells - a and lo[a] <= u1 <=
    hi[a].  The cells' counts come from Multinomial(m, (hi - lo) / cells)
    on Philox(key) at counter [0, 0, 0, 1], and each counted draw, cell
    by cell, from the rows of _chunk_blocks(key, count) at counter 0,
    2^192 Philox steps short of the counts' stream."""
    lo, hi = window
    width = hi - lo
    counts = np.random.Generator(np.random.Philox(
        key=key, counter=[0, 0, 0, 1])).multinomial(
            m, np.append(width / _WINDOW_CELLS, 0.0))
    cells = np.repeat(np.arange(_WINDOW_CELLS), counts[:-1])
    for s, t, u1 in _chunk_blocks(key, len(cells)):
        a = cells[s:s + len(t)]
        yield a, t, u1 * width[a] + lo[a]


def _third_leg(r, cth, k, absorb):
    """q^2 = r^2 + k^2 - 2 r k cth, + 2 r k cth on an absorption.  The
    third leg is sqrt(max(q^2, 0))."""
    if absorb:
        return r * r + k * k + r * 2.0 * k * cth
    return r * r + k * k - r * 2.0 * k * cth


def _radius(r_lo, dr, t, a):
    """(r, weight) of draws at positions t in [0, 1) of the window cells
    a: r = r_lo[a] + t dr[a], and weight, 4 pi r^2 over its density, is
    4 pi r^2 cells dr[a]."""
    d = dr[a]
    r = t * d + r_lo[a]
    return r, (4.0 * math.pi * _WINDOW_CELLS) * d * r * r


def _chunk_blocks(key, m):
    """Generator(Philox(key)).random((2, m)) as blocks (s, u0, u1): columns
    s to s + len(u0) of rows 0 and 1, at most _MC_BLOCK of them a block.

    Row 0 is the stream's first m doubles and row 1 the next m.  Philox
    is counter based and one step yields four doubles, so row 1 starts
    m // 4 steps and m % 4 draws in; the (2, m) array never exists.
    """
    rows0 = np.random.Generator(np.random.Philox(key=key))
    rows1 = np.random.Generator(np.random.Philox(key=key).advance(m // 4))
    rows1.random(m % 4)
    for s in range(0, m, _MC_BLOCK):
        n = min(_MC_BLOCK, m - s)
        yield s, rows0.random(n), rows1.random(n)


def mc_oracle(params: GasParameters, model: PotentialModel, k: float,
              process: str, epsilon: float | None = None,
              n_samples: int = 1_000_000, seed: int = 1234):
    """Monte Carlo estimate of a rate from the raw momentum integral.

    The conservation delta is mollified by a Gaussian of width epsilon
    (default 1e-3 omega(k)), and the partner momentum is drawn as a
    radius and a uniform cos theta.  The stream is counter based: chunks
    of 1e6 samples keyed by (seed, chunk) define which numbers are drawn,
    so results are bit reproducible for a given (seed, n_samples)
    regardless of scheduling.  Each chunk is evaluated in blocks of at
    most 2^13 draws, and the sums run over its weighed draws in draw
    order, so the block size moves no bit.

    Both processes read the radius from one table of the radii at u0 =
    a / 4096: R cbrt(u0) on a decay, R the radius of the ball of energy
    omega(k) + 5 epsilon, and on an absorption the inverse of a
    trapezoid CDF of the thermal density r^2 exp(-beta omega(r) / 2).
    A draw in cell a = int(u0 4096) takes its radius linearly between
    the cell's edges and weighs 4 pi r^2 4096 (r[a + 1] - r[a]), 4 pi
    r^2 over its density (_radius).  One block evaluator serves both
    processes, which differ only in that table, the leg order (k; r, q)
    or (q; r, k), the thermal weight and the prefactor.

    Heat beyond what its thermal weights represent in floats (theta =
    beta omega(k) below _MC_MIN_THETA, or an absorption radius density
    without a finite total) raises ParameterError naming beta before any
    draw, and a decay ball whose largest radius weight, 4 pi R^3, is not
    finite raises one naming k, or epsilon where 5 epsilon outweighs
    omega(k) in the ball's energy.  An estimate or a standard error that
    leaves the float range raises IntegrandError, and so does a standard
    error whose squared per-draw values underflow (var / n below the
    smallest normal float while the estimate is not 0); the block
    evaluator runs with numpy's float warnings off, so such a value
    reaches the sums.

    Only draws that can reach the mollified shell |z| < 39 are drawn.
    Bounds of omega on each u0 cell's radii and on 4096 cells of q^2
    bound each draw's energy sum, and a table built once per call from
    them gives each cell a u1 interval [lo, hi] outside which no draw
    reaches the shell (_window).  Drawing n uniform (u0, u1) and keeping
    those in these rectangles is drawing the cells' counts from
    Multinomial(n, (hi - lo) / 4096) and each counted draw uniformly in
    its rectangle (_window_samples), so the estimate is the same sum over
    n samples at a cost that follows the window's area, not n.  The
    bounds trust the branch table's monotone pieces; cells it does not
    cover, past a tabulated profile's range among them, bound nothing,
    so all their draws are drawn, and raise.  At the Gaussian v = 0.1,
    k = 0.3, beta nu = 10 point the window covers 1.33 % (decay) and
    7.56 % (absorption) of draw space, and 1.16 % and 5.62 % of the
    draws are weighed.  Memory is the chunk's cell list and weighed
    values and one block's draws and temporaries, independent of
    n_samples: at 1e6 samples tracemalloc peaks at 1.9 MiB (decay) and
    2.6 MiB (absorption).

    The pair comes back as computed even where the standard error is not
    well below the estimate: (0.0, 0.0) where no draw reaches the shell,
    or an estimate carried by a single draw.  The CLI (cli._rate) turns
    those into error rows where the support is not empty.

    The default epsilon biases the estimate at small k: the Gaussian
    v = 0.3, nu = 1 at k = 0.05, beta = 1000 (2000003 samples, seed 7)
    sits 19.4 (decay) and 28.6 (absorption) standard errors above the
    quadrature; with epsilon = 1e-5 omega(k) z is -2.1 and -0.8.

    Returns (estimate, stderr).
    """
    k = _checked_finite("k", k, positive=True)
    _check_process(process)
    n_samples = int(n_samples)
    if n_samples < MC_MIN_SAMPLES:
        raise ParameterError(
            f"n_samples must be >= {MC_MIN_SAMPLES}, got {n_samples}")
    w_k = _omega_scalar(params, model, k)
    eps = float(epsilon) if epsilon is not None else 1e-3 * w_k
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"epsilon must be positive, got {eps}")
    beta = params.beta
    if not beta * w_k >= _MC_MIN_THETA:
        raise _too_hot(beta, f"beta omega(k) = {beta * w_k:g} is below "
                             f"{_MC_MIN_THETA:g}, where its thermal weights "
                             "leave the float range")

    absorb = process == "landau"
    # the window's cell edges of u0; each process maps them to radii
    edges = np.arange(_WINDOW_CELLS + 1) / _WINDOW_CELLS
    if not absorb:
        energy = w_k + 5.0 * eps
        R = math.inf
        if energy < math.inf:
            branches = branch_table(params, model, energy)
            R = invert_dispersion(branches[0], energy)
        if not R < _MC_MAX_RADIUS:
            cause = f"k = {k:g}" if w_k >= 5.0 * eps else f"epsilon = {eps:g}"
            raise ParameterError(
                f"{cause} is too large for the Monte Carlo oracle: the decay "
                f"ball of energy omega(k) + 5 epsilon = {energy:g} has radius "
                f"{R:g}, where the largest radius weight, 4 pi R^3, is not "
                "a finite float")
        r_edges = R * np.cbrt(edges)
        pref = 1.0 / (16.0 * math.pi ** 2)
        thermal = _mc_thermal_beliaev
        legs = itemgetter(0, 1, 2)  # (k; r, q)
    else:
        u_cap = (_landau_t_max(beta, w_k) + 10.0) / beta
        branches = branch_table(params, model, u_cap + w_k)
        b = branches[0]
        R = invert_dispersion(b, min(u_cap, b.omega_max))
        pref = 1.0 / (8.0 * math.pi ** 2)
        thermal = _mc_thermal_landau
        legs = itemgetter(2, 1, 0)  # (q; r, k)
        x = np.linspace(0.0, R, 4097)
        dx = x[1] - x[0]
        w_x = omega_bg(params, model, x)
        wts = x ** 2 * np.exp(-0.5 * beta * np.minimum(w_x, 1400.0 / beta))
        with np.errstate(over="ignore"):
            cum = np.concatenate(([0.0],
                                  np.cumsum(0.5 * (wts[1:] + wts[:-1]) * dx)))
        if not (math.isfinite(cum[-1]) and cum[-1] > 0.0):
            raise _too_hot(beta, f"the absorption radius density on [0, "
                                 f"{R:g}] has no finite total")
        r_edges = np.interp(edges, cum / cum[-1], x)
    dr = np.diff(r_edges)

    nothing = np.empty(0)

    def values(a, t, u1):
        """The weighed draws' values of one block of window draws, in
        draw order."""
        r, wt = _radius(r_edges, dr, t, a)
        cth = u1 * 2.0 - 1.0
        q2 = _third_leg(r, cth, k, absorb)
        q = np.sqrt(np.maximum(q2, 0.0))
        wr = omega_bg(params, model, r)
        wq = omega_bg(params, model, q)
        w0, w1, w2 = legs((w_k, wr, wq))
        z = (w0 - w1 - w2) / eps
        sel = np.flatnonzero((np.abs(z) < 39.0) & (q > 0) & (r > 0))
        if not sel.size:
            return nothing
        r, q = r[sel], q[sel]
        jv = _j_arrays(params, model, *legs((k, r, q)))
        delta = np.exp(-0.5 * z[sel] ** 2) / (eps * math.sqrt(2.0 * math.pi))
        T = thermal(beta, w_k, wr[sel], wq[sel])
        return wt[sel] * jv * jv * delta * T

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 0
    # a value out of the float range leaves a non-finite sum: raised below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        window = _window(params, model, branches, r_edges, R + k, w_k,
                         39.0 * eps, k, absorb)
        while done < n_samples:
            m = min(_MC_CHUNK, n_samples - done)
            key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk], dtype=np.uint64)
            # the chunk's values in draw order; the sums run over the chunk
            g = np.concatenate([nothing, *(values(*b) for b in
                                           _window_samples(window, key, m))])
            total += float(np.sum(g))
            total_sq += float(np.sum(np.square(g, out=g)))
            done += m
            chunk += 1
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    est = pref * mean
    stderr = pref * math.sqrt(var / n_samples)
    if not (math.isfinite(est) and math.isfinite(stderr)):
        raise IntegrandError(
            f"Monte Carlo {process} estimate {est!r} +- {stderr!r} is not "
            "finite: the per-draw values leave the float range")
    if total and not var / n_samples >= _MIN_NORMAL:
        raise IntegrandError(
            f"Monte Carlo {process} estimate {est!r} has a standard error "
            "below the float range: the squared per-draw values underflow")
    return est, stderr


def total_damping(params: GasParameters, model: PotentialModel, k: float):
    """Both quadrature rates and their sum: (beliaev, landau, total).

    The imaginary part of the dispersion is minus the total; conventions
    that track the decay of the squared mode amplitude quote twice these
    numbers.
    """
    rb = gamma_beliaev_quadrature(params, model, k)
    rl = gamma_landau_quadrature(params, model, k)
    return rb, rl, rb.value + rl.value
