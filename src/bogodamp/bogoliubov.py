"""Quasiparticle dispersion, its branches, and the quadratic coefficients.

The dispersion is omega(k) = k sqrt(k^2/4 + nu_k) with the momentum
dependent interaction energy nu_k = nu vhat(k)/vhat(0), and its slope is
omega'(k) = nu NP(k) / sqrt(k^2/4 + nu_k) with the slope function NP of
potential._np_slope.  Only the shape of the potential enters here; the
amplitude vhat0 carried by GasParameters multiplies rates, not energies.

For potentials whose profile dips (maxon and roton style tables) the
dispersion is no longer monotone, so inversion from energy to momentum has
to be organised by branch.  detect_branches splits [0, p_max] at the
stationary points of omega and each DispersionBranch carries sampled
energies, built once per branch into the constants of each node
interval: the nodes bracket the root and the interval's Hermite tangents
give a cubic first guess, which a safeguarded Newton iteration polishes
to about an ulp, usually in one dispersion evaluation.  That iteration
is one root kernel, _invert: it returns the root with the profile pair
(vhat, vhat') there, so energy_point and the momentum scan evaluate the
profile once per momentum, and invert_dispersion is its public face.
branch_table picks p_max from the requested energy alone, so a table,
and every rate computed on it, is a pure function of its arguments.

Each formula is written once, for floats and arrays alike, in one
operation order: _dispersion holds omega, _dispersion_and_slope omega
and its slope from the pair one vhat_dvhat call gives (_omega_and_slope
makes that call first), _coeff_kernel the Bogoliubov coefficients at a
momentum from its profile value and energy (_coeffs evaluates the
profile first), and energy_point the per-energy quantities of the
energy space rate integrals: the regularized coefficients, nu_x and the
measure factor f.
math.sqrt and np.sqrt both round correctly, so a float and an array
agree bit for bit wherever the model's float and array profiles do.
"""
from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_left

import numpy as np

from .errors import (AssumptionError, DomainError, ExtrapolationError,
                     ParameterError, RangeError, SingularityError,
                     SingularMeasureError, _checked_finite)
from .params import GasParameters
from .potential import PotentialModel, _np_slope

__all__ = [
    "omega_bg",
    "omega_bg_prime",
    "bogo_coeffs",
    "occupation_rho",
    "DispersionBranch",
    "detect_branches",
    "invert_dispersion",
    "branch_table",
    "first_branch",
    "measure_factor_f",
]


def _dispersion(k, nk):
    """(omega, r) at momenta k >= 0 with nu_k = nk: r = sqrt(k^2/4 + nk).

    omega = k r keeps k out of the radicand, so it stays accurate where
    k * k underflows.  The radicand is nu > 0 at k = 0; one that is not
    positive raises AssumptionError, and a NaN passes through.
    """
    inner = 0.25 * k * k + nk
    if isinstance(inner, np.ndarray):
        bad = inner <= 0.0
        if bad.any():
            raise AssumptionError(
                f"dispersion radicand negative or zero at k = {k[bad][0]}")
        r = np.sqrt(inner, out=inner)
    elif not inner <= 0.0:
        r = math.sqrt(inner)
    else:
        raise AssumptionError(
            f"dispersion radicand negative or zero at k = {k}: nu_k = {nk}")
    return k * r, r


def _omega_scalar(params, model, k):
    """omega(k) at a float or an array k >= 0, no validation (hot path)."""
    return _dispersion(k, params.nu * model.vhat(k) / model.vhat0)[0]


def _dispersion_and_slope(nu, v0, k, vh, dvh):
    """(omega(k), omega'(k)) at a float or an array k >= 0 from vh =
    vhat(k) and dvh = vhat'(k), no validation.

    The slope is nu NP(k) / sqrt(k^2/4 + nu_k), with the k -> 0 limit
    sqrt(nu) taken exactly at k = 0.
    """
    w, r = _dispersion(k, nu * vh / v0)
    slope = nu * _np_slope(nu, v0, k, vh, dvh) / r
    if isinstance(slope, np.ndarray):
        return w, np.where(k == 0.0, math.sqrt(nu), slope)
    return w, (math.sqrt(nu) if k == 0.0 else slope)


def _omega_and_slope(params, model, k):
    """(omega(k), omega'(k)) at a float or an array k >= 0, no validation:
    one vhat_dvhat call, then _dispersion_and_slope."""
    vh, dvh = model.vhat_dvhat(k)
    return _dispersion_and_slope(params.nu, model.vhat0, k, vh, dvh)


def omega_bg(params: GasParameters, model: PotentialModel, k):
    """Quasiparticle energy omega(k), scalar or array, k >= 0."""
    return _omega_scalar(params, model, _checked_finite("k", k, arrays=True))


def omega_bg_prime(params: GasParameters, model: PotentialModel, k):
    """Group velocity d omega / dk, scalar or array, k >= 0.

    Equal to nu NP(k) / sqrt(k^2/4 + nu_k) with the slope function
    NP(k) = k^2/(2 nu) + vhat(k)/vhat0 + k vhat'(k)/(2 vhat0), which is
    (nu k / omega) NP(k) with k cancelled, so it keeps full precision down
    to subnormal k; at k = 0 it is sqrt(nu) exactly.  A 0-d input returns
    a float.
    """
    k = _checked_finite("k", k, arrays=True)
    return _omega_and_slope(params, model, k)[1]


def _coeffs(params, model, x):
    """(s, c, 1/(c + s), vhat(x)/vhat0) at positive momenta x, no validation.

    One vhat call, then _coeff_kernel.
    """
    vh = model.vhat(x)
    w = _dispersion(x, params.nu * vh / model.vhat0)[0]
    return _coeff_kernel(params, model, x, vh, w)


def _coeff_kernel(params, model, x, vh, w):
    """_coeffs at momenta x > 0 from vh = vhat(x) and w = omega(x).

    c = sqrt((E + omega)/(2 omega)) and s = |nu_x| / sqrt(2 omega (E +
    omega)) with E = x^2/2 + nu_x; c - s is rationalized as 1/(c + s)
    through c^2 - s^2 = 1.  A float x and an array x take the same
    operation order.  A float whose dispersion vanishes raises
    AssumptionError.
    """
    v0 = model.vhat0
    nk = params.nu * vh / v0
    if isinstance(x, np.ndarray):
        sqrt = np.sqrt
    elif w > 0:
        sqrt = math.sqrt
    else:
        raise AssumptionError(
            f"dispersion vanishes at k = {x}: nu_k = {nk}")
    E = 0.5 * x * x + nk
    c = sqrt((E + w) / (2.0 * w))
    s = abs(nk) / sqrt(2.0 * w * (E + w))
    return s, c, 1.0 / (c + s), vh / v0


def bogo_coeffs(params: GasParameters, model: PotentialModel, k: float):
    """Coefficients (s_k, c_k) of the quadratic diagonalisation at momentum k.

    Both diverge like 1/sqrt(k) as k -> 0; evaluation at k = 0 raises and
    points at the regularized energy space form, which absorbs that factor.
    Validates k and returns the first two entries of _coeffs, the kernel
    the vertices and the Monte Carlo oracle share.  Its stable form of s
    uses E = k^2/2 + nu_k, which equals sqrt(omega^2 + nu_k^2)
    identically.
    """
    k = _checked_finite("k", k)
    if k == 0:
        raise SingularityError(
            "bogo_coeffs is singular at k = 0; use regularized_F for the "
            "energy space combination")
    return _coeffs(params, model, k)[:2]


def occupation_rho(params: GasParameters, omega: float) -> float:
    """Thermal occupation 1/(exp(beta omega) - 1) of a mode at energy omega."""
    x = params.beta * _checked_finite("omega", omega, positive=True)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


class DispersionBranch:
    """One monotone piece of the dispersion with a cached inverse.

    Attributes p_lo, p_hi bound the momentum interval, omega_min,
    omega_max the energy range, and increasing records the direction.
    The root kernel _invert reads its per-branch constants from one
    tuple: the energies it accepts, the range widened by a clamping slack
    of 1e-12 max(omega_max, 1) at each end, the direction's sign, nu,
    vhat0 and the last node index.
    The cached nodes hold momentum and energy in ascending energy order,
    as plain floats for the scalar hot path: the root kernel _invert
    brackets its root between two of them and starts Newton from their
    cubic Hermite interpolant.  The interpolant's constants are built
    once per branch, with numpy in _invert's operation order, and stored
    per node interval (interval i joins nodes i and i + 1): the Hermite
    tangents ma = dw/da and mb = dw/db from the node slopes da, db (inf
    where a slope is 0), whether Fritsch and Carlson admit them, and the
    Newton constant curv (inf where a node slope is 0).
    """

    __slots__ = ("params", "model", "index", "p_lo", "p_hi", "increasing",
                 "omega_min", "omega_max", "_kernel", "_asc_w", "_asc_p",
                 "_ma", "_mb", "_hermite", "_curv")

    def __init__(self, params, model, index, p_nodes, w_nodes, d_nodes,
                 increasing):
        self.params = params
        self.model = model
        self.index = index
        self.p_lo = float(p_nodes[0])
        self.p_hi = float(p_nodes[-1])
        self.increasing = bool(increasing)
        step = 1 if increasing else -1
        pv = np.asarray(p_nodes, dtype=float)[::step]
        wv = np.asarray(w_nodes, dtype=float)[::step]
        dv = np.asarray(d_nodes, dtype=float)[::step]
        self._asc_p = pv.tolist()
        self._asc_w = wv.tolist()
        self.omega_min = self._asc_w[0]
        self.omega_max = self._asc_w[-1]
        slack = 1e-12 * max(self.omega_max, 1.0)
        self._kernel = (self.omega_min - slack, self.omega_max + slack,
                        1.0 if increasing else -1.0, params.nu,
                        model.vhat0, len(self._asc_w) - 1)
        dp = pv[1:] - pv[:-1]
        dw = wv[1:] - wv[:-1]
        da, db = dv[:-1], dv[1:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ma = np.where(da != 0.0, dw / da, np.inf)
            mb = np.where(db != 0.0, dw / db, np.inf)
            ra, rb = ma / dp, mb / dp
            dmin = np.minimum(np.abs(da), np.abs(db))
            curv = np.where(dmin > 0.0,
                            2.0 * np.abs(db - da) / (np.abs(dp) * dmin), np.inf)
        self._ma = array("d", ma)
        self._mb = array("d", mb)
        self._hermite = ((0.0 <= ra) & (ra <= 3.0)
                         & (0.0 <= rb) & (rb <= 3.0)).tobytes()
        self._curv = array("d", curv)

    def __repr__(self):
        arrow = "up" if self.increasing else "down"
        return (f"DispersionBranch({self.index}, p in [{self.p_lo:g}, "
                f"{self.p_hi:g}], omega in [{self.omega_min:g}, "
                f"{self.omega_max:g}], {arrow})")


# group velocity samples of the branch scan, geometric over
# [1e-7 p_max, p_max]
_BRANCH_SCAN_POINTS = 4096


def detect_branches(params: GasParameters, model: PotentialModel,
                    p_max: float) -> list[DispersionBranch]:
    """Split [0, p_max] into monotone branches of the dispersion.

    Scans the group velocity on a geometric grid, refines each sign change
    by bisection to width 1e-8 sqrt(nu), and samples each monotone piece
    for later inversion.  A flat stretch of the dispersion (three or more
    consecutive scan points with essentially zero slope) is not invertible
    and raises AssumptionError.
    """
    if not (math.isfinite(p_max) and p_max > 0):
        raise ParameterError(f"p_max must be positive and finite, got {p_max}")
    rt = math.sqrt(params.nu)
    grid = np.geomspace(p_max * 1e-7, p_max, _BRANCH_SCAN_POINTS)
    der = omega_bg_prime(params, model, grid)

    run = 0
    for i, d in enumerate(np.abs(der) < 1e-11 * rt):
        run = run + 1 if d else 0
        if run >= 3:
            raise AssumptionError(
                f"dispersion slope vanishes on a stretch near k = {grid[i]:g}; "
                "no-plateau condition violated")

    if der[0] <= 0:
        raise AssumptionError(
            "dispersion is not increasing at small momentum; curvature "
            "condition at the origin violated")

    stationary = []
    flips = np.nonzero(np.sign(der[:-1]) * np.sign(der[1:]) < 0)[0]
    for i in flips:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = float(der[i])
        while hi - lo > 1e-8 * rt:
            mid = 0.5 * (lo + hi)
            fm = _omega_and_slope(params, model, mid)[1]
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        p_star = 0.5 * (lo + hi)
        if not stationary or p_star - stationary[-1] > 2e-8 * rt:
            stationary.append(p_star)

    bounds = [0.0] + stationary + [p_max]
    branches = []
    for j in range(len(bounds) - 1):
        nodes = np.linspace(bounds[j], bounds[j + 1], 1025)
        w, slopes = _omega_and_slope(params, model, nodes)
        increasing = j % 2 == 0
        d = np.diff(w)
        tol = 1e-12 * max(float(np.max(w)), rt)
        if increasing and np.any(d < -tol) or not increasing and np.any(d > tol):
            raise AssumptionError(
                f"branch {j} of the dispersion is not monotone; stationary "
                "point detection failed for this model")
        branches.append(DispersionBranch(params, model, j, nodes, w, slopes,
                                         increasing))
    return branches


# Iteration cap of _invert: bisection alone shrinks a node
# interval to adjacent floats in well under this many steps.
_INVERT_MAXIT = 200


def invert_dispersion(branch: DispersionBranch, omega: float) -> float:
    """Momentum on the branch with quasiparticle energy omega.

    The public face of _invert, the root kernel that energy_point and the
    momentum scan call directly: the same checks and errors, and only the
    momentum of the kernel's (p, vhat(p), vhat'(p)).
    """
    return _invert(branch, float(omega))[0]


def _invert(branch, omega):
    """(p, vhat(p), vhat'(p)) at the momentum p on the branch with energy
    omega, a float.

    A non-finite omega raises DomainError, one outside the branch's
    energy range by more than a slack of 1e-12 max(omega_max, 1) raises
    RangeError, and one within the slack is clamped to the range.  The
    cached nodes bracket the root in [lo, hi].  Newton's method on
    omega(p) - omega starts from the nodes' cubic Hermite interpolant
    (linear where the node slopes would make the cubic non-monotone) and
    falls back to bisection whenever a step leaves the bracket or fails
    to halve.  Each iterate costs one profile call (vhat_dvhat), which
    _dispersion_and_slope turns into omega and its slope.  After a
    Newton step delta the error left is at most K delta^2, with K =
    2 |d_b - d_a| / (|p_b - p_a| min(|d_a|, |d_b|)) from the node slopes
    d: four times the secant estimate of Newton's constant |omega''| /
    (2 |omega'|) on the interval.  The tangents, their admissibility and
    K are the branch's stored constants of the interval
    (DispersionBranch); a call only looks them up.  The step is the last
    once that bound is at most an ulp of the new iterate.  Otherwise the
    loop ends on an exact zero, on a step below half an ulp, or when the
    bracket closes to adjacent floats.  Either way the root is within a
    few ulp of a sign change of omega(p) - omega, so its energy residual
    is a few ulp of omega.  A root the loop has evaluated returns that
    evaluation's pair; a new one (a Newton step that met the stop rule,
    a closed bracket) takes one more profile call, so each momentum is
    evaluated once.  A loop that runs out (a model whose dispersion is
    not finite on the bracket) raises AssumptionError.
    """
    w_low, w_high, sign, nu, v0, last_i = branch._kernel
    wlo, whi = branch.omega_min, branch.omega_max
    # one comparison chain on the hot path; NaN fails it as well
    if not w_low <= omega <= w_high:
        if not math.isfinite(omega):
            raise DomainError(f"omega must be finite, got {omega}")
        raise RangeError(
            f"energy {omega} outside branch range [{wlo}, {whi}]")
    # clamps spelled as comparisons: min(max(x, a), b) exactly, and
    # cheaper than two builtin calls on this hot path
    if omega < wlo:
        omega = wlo
    if omega > whi:
        omega = whi
    model = branch.model
    wv, pv = branch._asc_w, branch._asc_p
    # the node interval [i - 1, i], with i clamped to [1, len - 1]
    i = bisect_left(wv, omega, 1, last_i)
    pa, pb = pv[i - 1], pv[i]
    lo, hi = (pa, pb) if pa <= pb else (pb, pa)
    if lo == hi:
        return (lo, *model.vhat_dvhat(lo))
    wa = wv[i - 1]
    dp = pb - pa
    dw = wv[i] - wa
    t = (omega - wa) / dw if dw > 0.0 else 0.5
    # Hermite tangents in p per unit t, admitted while 0 <= m/dp <= 3
    # (Fritsch and Carlson), which keeps the cubic inside [lo, hi]
    if branch._hermite[i - 1]:
        t2 = t * t
        p = (pa + t2 * (3.0 - 2.0 * t) * dp
             + t * (t - 1.0) * ((t - 1.0) * branch._ma[i - 1]
                                + t * branch._mb[i - 1]))
    else:
        p = pa + t * dp
    if p < lo:
        p = lo
    if p > hi:
        p = hi
    curv = branch._curv[i - 1]
    last = hi - lo
    for _ in range(_INVERT_MAXIT):
        vh, dvh = model.vhat_dvhat(p)
        w, slope = _dispersion_and_slope(nu, v0, p, vh, dvh)
        g = sign * (w - omega)
        if g < 0.0:
            lo = p
        elif g > 0.0:
            hi = p
        elif g == 0.0:
            return p, vh, dvh
        dg = sign * slope
        step = g / dg if dg > 0.0 else math.inf
        q = p - step
        if q == p:
            return p, vh, dvh
        size = abs(step)
        if lo < q < hi and 2.0 * size <= last:
            if curv * size * size <= math.ulp(q):
                break
            last = size
        else:
            q = 0.5 * (lo + hi)
            if q == lo or q == hi:
                break
            last = hi - lo
        p = q
    else:
        raise AssumptionError(
            f"dispersion inversion at energy {omega} did not converge in "
            f"{_INVERT_MAXIT} steps on {branch!r}: the dispersion is not "
            "finite and monotone on the bracket")
    return (q, *model.vhat_dvhat(q))


@functools.lru_cache(maxsize=8)
def _table(params, model, p_max):
    return detect_branches(params, model, p_max)


def branch_table(params: GasParameters, model: PotentialModel,
                 energy: float) -> list[DispersionBranch]:
    """Branches of the dispersion covering energies up to at least `energy`.

    A pure function of its arguments: the table spans [0, p_max] with p_max
    the first momentum on the ladder 4 sqrt(nu) 2^n, capped at the model's
    k_max, whose energy exceeds 1.05 energy.  Tables are memoised by value;
    two threads that miss together build identical tables.
    """
    if not (math.isfinite(energy) and energy >= 0):
        raise ParameterError(f"energy must be finite and >= 0, got {energy}")
    p_cap = getattr(model, "k_max", math.inf)
    p_max = min(4.0 * math.sqrt(params.nu), p_cap)
    while _omega_scalar(params, model, p_max) <= 1.05 * energy:
        if p_max >= p_cap:
            raise ExtrapolationError(
                f"tabulated potential covers energies up to "
                f"{_omega_scalar(params, model, p_cap):g}, need {energy:g}")
        p_max = min(2.0 * p_max, p_cap)
    return _table(params, model, p_max)


def first_branch(params: GasParameters, model: PotentialModel,
                 energy: float) -> DispersionBranch:
    """The branch rising from zero momentum in the table covering `energy`."""
    return branch_table(params, model, energy)[0]


def energy_point(params: GasParameters, model: PotentialModel,
                 branch: DispersionBranch, x: float):
    """Regularized coefficients and measure factor at energy x on a branch.

    Returns (s, c, c - s, nu_x, f, NP) at the momentum p(x): c^2 - s^2 = 2x
    exactly, the difference is rationalized as 2x/(c + s) so it vanishes
    bit for bit at x = 0, nu_x = nu vhat(p)/vhat0, NP is NP(p), and the
    measure factor f = 1/(nu NP), singular where NP vanishes, is not
    checked here.  The first four slots are in the order of _coeffs, so
    vertices._vertex reads either tuple.  One pass: the root kernel
    _invert gives p with vhat(p) and vhat'(p), so no profile call is
    made here.
    """
    p, vh, dvh = _invert(branch, x)
    nu, v0 = params.nu, model.vhat0
    nu_x = nu * (vh / v0)
    E = 0.5 * p * p + nu_x
    c = math.sqrt(E + x)
    s = abs(nu_x) / c
    npk = _np_slope(nu, v0, p, vh, dvh)
    return s, c, 2.0 * x / (c + s), nu_x, 1.0 / (nu * npk), npk


def measure_factor_f(params: GasParameters, model: PotentialModel,
                     branch: DispersionBranch, u: float) -> float:
    """Jacobian f(u) = d(p^2)/d(u^2) on a branch, with f(0) = 1/nu.

    Equal to 1/(nu NP(p(u))).  Positive on increasing branches, negative
    on decreasing ones.  Singular at a stationary endpoint, where it is
    the package's one evaluation that raises (SingularMeasureError).
    """
    f, npk = energy_point(params, model, branch, float(u))[4:]
    # branch boundaries are located to about 1e-8 sqrt(nu) in momentum, so
    # a query at a stationary endpoint sees a slope of that size, not zero
    if abs(npk) < 1e-7:
        raise SingularMeasureError(
            f"measure factor singular at u = {u}: dispersion slope vanishes")
    return f
