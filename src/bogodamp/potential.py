"""Radial interaction potentials in momentum space, plus the assumption checks.

Every model exposes the radial profile vhat(k) for k >= 0, its radial
derivative, the two from one evaluation (vhat_dvhat), and a little
metadata the validator and the grid builders need.  Models are
immutable and accept scalars or numpy arrays.  The profile is the even
radial section of a rotation invariant function, so negative arguments
never appear; callers pass magnitudes.

The shape of a model (vhat normalised by its value at zero) is what enters
the dispersion; the overall amplitude of the rates is carried separately
by GasParameters.vhat0.  Keeping the two consistent is the caller's job;
the library examples pass vhat0 = model.vhat0.  The command line front end
does the same unless --vhat0 overrides it (for the flat profile --vhat0
sets the model's amplitude as well), so its rates equal the library's.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DomainError, ExtrapolationError, ParameterError,
                     _checked_finite)
from .params import GasParameters

__all__ = [
    "PotentialModel",
    "GaussianPotential",
    "FlatCutoffPotential",
    "TabulatedPotential",
    "load_tabulated",
    "evaluate_vhat",
    "AssumptionCheck",
    "AssumptionReport",
    "default_probe_grid",
    "validate_assumptions",
]


def _check_pos(name, val, allow_inf=False):
    ok = val > 0 and (allow_inf or math.isfinite(val))
    if not ok:
        raise ParameterError(f"{name} must be > 0, got {val}")
    return float(val)


class PotentialModel:
    """Base interface: kind, vhat0, vhat(k), dvhat(k), both at once
    (vhat_dvhat), curvature at zero."""

    kind = "abstract"

    @property
    def vhat0(self) -> float:
        raise NotImplementedError

    def vhat(self, k):
        raise NotImplementedError

    def dvhat(self, k):
        raise NotImplementedError

    def vhat_dvhat(self, k):
        """(vhat(k), dvhat(k)) at a float or an array k >= 0.

        The hot paths (dispersion inversion, the momentum scan) take both
        from this one call; a model overrides it to share one evaluation
        between the two, so this default serves a model that defines only
        vhat and dvhat.
        """
        return self.vhat(k), self.dvhat(k)

    def d2vhat0(self) -> float:
        """Second radial derivative of vhat at k = 0."""
        raise NotImplementedError

    def support_hint(self) -> float:
        """A momentum beyond which vhat is negligible or zero (inf if none)."""
        return math.inf


@dataclass(frozen=True)
class GaussianPotential(PotentialModel):
    """Gaussian profile vhat(k) = v * exp(-v * k^2 / (2 nu^2)).

    The amplitude v doubles as the inverse squared width in units of nu,
    so the curvature group 2 nu vhat''(0) / vhat(0) equals -2 v / nu and
    the dispersion is strictly convex near zero exactly when 2 v / nu < 1.
    The model is meant to be used in that window.
    """

    v: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "v", _check_pos("v", self.v))
        object.__setattr__(self, "nu", _check_pos("nu", self.nu))
        # the profile's constants 2 nu^2 and w2 = nu^2 / v, each in the
        # operation order of its formula
        object.__setattr__(self, "_den", 2.0 * self.nu ** 2)
        object.__setattr__(self, "_w2", self.nu * self.nu / self.v)

    kind = "gaussian"

    @property
    def vhat0(self):
        return self.v

    def _expo(self, k):
        # past k ~ 1.34e154 k^2 overflows to inf and the profile is 0.0,
        # which the float path returns without a warning too
        with np.errstate(over="ignore"):
            return self.v / (2.0 * self.nu * self.nu) * np.square(k)

    def _scalar_vhat(self, k):
        try:
            k2 = k ** 2
        except OverflowError:
            # k^2 beyond the float range, where np.square gives inf and
            # the array path 0.0; the profile underflowed long before
            return 0.0
        return self.v * math.exp(-self.v * k2 / self._den)

    def vhat(self, k):
        if type(k) is float or np.ndim(k) == 0:
            return self._scalar_vhat(float(k))
        return self.v * np.exp(-self._expo(np.asarray(k, dtype=float)))

    def dvhat(self, k):
        return self.vhat_dvhat(k)[1]

    def vhat_dvhat(self, k):
        """(vhat(k), dvhat(k)) from one exponential: vhat' = -k vhat / w2
        with w2 = nu^2 / v."""
        if type(k) is not float:
            if np.ndim(k):
                k = np.asarray(k, dtype=float)
                vh = self.vhat(k)
                return vh, -k / self._w2 * vh
            k = float(k)
        vh = self._scalar_vhat(k)
        return vh, -k / self._w2 * vh

    def d2vhat0(self):
        return -self.v * self.v / (self.nu * self.nu)

    def support_hint(self):
        # exponent ~ 40 at this momentum
        return self.nu * math.sqrt(80.0 / self.v)


@dataclass(frozen=True)
class FlatCutoffPotential(PotentialModel):
    """Constant v0 up to Lambda, cosine ramp to zero on [Lambda, 2 Lambda].

    The ramp v0 * (1 + cos(pi (k - Lambda) / Lambda)) / 2 matches value and
    first derivative at both junctions.  Lambda = inf gives the exactly
    flat profile; that one fails the square integrability check and is
    meant for closed form comparisons only.
    """

    v0: float
    Lambda: float

    def __post_init__(self):
        object.__setattr__(self, "v0", _check_pos("v0", self.v0))
        object.__setattr__(self, "Lambda", _check_pos("Lambda", self.Lambda, allow_inf=True))

    kind = "flatcutoff"

    @property
    def vhat0(self):
        return self.v0

    def vhat(self, k):
        if math.isinf(self.Lambda):
            if np.ndim(k) == 0:
                return self.v0
            return np.full(np.shape(k), self.v0, dtype=float)
        k = np.asarray(k, dtype=float)
        ramp = 0.5 * self.v0 * (1.0 + np.cos(np.pi * (k - self.Lambda) / self.Lambda))
        out = np.where(k < self.Lambda, self.v0,
                       np.where(k < 2.0 * self.Lambda, ramp, 0.0))
        return float(out) if out.ndim == 0 else out

    def dvhat(self, k):
        if math.isinf(self.Lambda):
            return 0.0 if np.ndim(k) == 0 else np.zeros(np.shape(k))
        k = np.asarray(k, dtype=float)
        slope = -0.5 * self.v0 * np.pi / self.Lambda * np.sin(
            np.pi * (k - self.Lambda) / self.Lambda)
        out = np.where((k >= self.Lambda) & (k < 2.0 * self.Lambda), slope, 0.0)
        return float(out) if out.ndim == 0 else out

    def d2vhat0(self):
        return 0.0

    def support_hint(self):
        return 2.0 * self.Lambda


def _pchip_slopes(h, m):
    """Node slopes of the monotone cubic through data with spacings h and
    secant slopes m (Fritsch and Butland, 1984), at least three nodes.

    An interior slope is the weighted harmonic mean of the two secants,
    or 0 where they differ in sign or one vanishes; the end slopes come
    from the one sided three point formula, limited to keep the shape
    (Moler, Numerical Computing with MATLAB, 2004).  The operations and
    their order are scipy's PchipInterpolator._find_derivatives.
    """
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros(m.size + 1)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        de = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(de) != np.sign(m0):
            de = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(de) > 3.0 * abs(m0):
            de = 3.0 * m0
        d[end] = de
    return d


class TabulatedPotential(PotentialModel):
    """Profile given by samples on an ascending grid starting at k = 0.

    Interpolation is monotone piecewise cubic (PCHIP), which preserves
    shape and is C1; queries beyond the last grid point raise instead of
    extrapolating.  The derivative dvhat is that cubic's own derivative,
    so the profile and its slope are one interpolant.

    The cubic coefficients are built as scipy's PchipInterpolator and
    CubicHermiteSpline build them, and _pchip evaluates floats and arrays
    alike as scipy's PPoly does: the interval is the last one whose left
    knot is <= k, and the terms are summed lowest power first.  Floats,
    arrays and scipy's interpolant and derivative() agree bit for bit.
    """

    kind = "tabulated"

    def __init__(self, grid: Sequence[float], values: Sequence[float]):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ParameterError("grid and values must be 1d arrays of equal length")
        if grid.size < 4:
            raise ParameterError(f"need at least 4 grid points, got {grid.size}")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise ParameterError("grid and values must be finite")
        if grid[0] != 0.0:
            raise ParameterError(f"grid must start at 0, got {grid[0]}")
        if np.any(np.diff(grid) <= 0):
            raise ParameterError("grid must be strictly increasing")

        self.grid = grid
        self.values = values
        self.k_max = float(grid[-1])
        self._vhat0 = float(values[0])
        # cubic Hermite coefficients per interval, highest power first
        h = np.diff(grid)
        m = np.diff(values) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], values[:-1]))
        # the same, as Python floats for float queries
        self._knots = grid.tolist()
        self._coef = list(zip(*self._c.tolist()))
        self._last = len(self._coef) - 1

    @property
    def vhat0(self):
        return self._vhat0

    def _checked(self, k):
        """k as a float or a float array in [0, k_max (1 + 1e-12)]; NaN
        passes through."""
        if type(k) is float or np.ndim(k) == 0:
            k = float(k)
            if k < 0:
                raise DomainError("vhat takes k >= 0")
            if k > self.k_max * (1.0 + 1e-12):
                raise ExtrapolationError(
                    f"k = {k} beyond tabulated range [0, {self.k_max}]")
            return k
        k = np.asarray(k, dtype=float)
        if np.any(k < 0):
            raise DomainError("vhat takes k >= 0")
        if np.any(k > self.k_max * (1.0 + 1e-12)):
            bad = float(np.max(k))
            raise ExtrapolationError(
                f"k = {bad} beyond tabulated range [0, {self.k_max}]")
        return k

    def _pchip(self, k, slope=False):
        """Interpolant at min(k, k_max) for a float or an array k >= 0, or
        with slope the pair of it and its derivative, coefficients (c2,
        2 c1, 3 c0), from one interval lookup.

        The last interval is closed on the right at k_max; the terms are
        summed lowest power first with running powers of s, as scipy's
        PPoly.derivative and evaluate_poly1 do.
        """
        if type(k) is float:
            i = bisect_right(self._knots, k) - 1
            if i > self._last:
                # k >= k_max, or NaN
                i = self._last
                if k > self.k_max:
                    k = self.k_max
            c0, c1, c2, c3 = self._coef[i]
            s = k - self._knots[i]
        else:
            k = np.minimum(k, self.k_max)
            i = np.minimum(np.searchsorted(self.grid, k, side="right") - 1,
                           self._last)
            c0, c1, c2, c3 = self._c.take(i, axis=1)
            s = k - self.grid.take(i)
        z = s * s
        value = 0.0 + c3 + c2 * s + c1 * z + c0 * (z * s)
        if slope:
            return value, 0.0 + c2 + 2.0 * c1 * s + 3.0 * c0 * z
        return value

    def vhat(self, k):
        return self._pchip(self._checked(k))

    def dvhat(self, k):
        return self._pchip(self._checked(k), slope=True)[1]

    def vhat_dvhat(self, k):
        return self._pchip(self._checked(k), slope=True)

    def d2vhat0(self):
        h = min(1e-4 * self.k_max, 0.5 * float(self.grid[1]))
        return 2.0 * (self.vhat(h) - self.vhat0) / (h * h)

    def support_hint(self):
        return self.k_max


def load_tabulated(path) -> TabulatedPotential:
    """Read a two column whitespace separated table of k and vhat(k).

    Blank lines and '#' comments (full line or trailing) are ignored.
    Rows must be ascending in k with the first row at k = 0.
    """
    ks, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParameterError(
                    f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                ks.append(float(parts[0]))
                vs.append(float(parts[1]))
            except ValueError:
                raise ParameterError(
                    f"{path}:{lineno}: could not parse {line!r}") from None
    if not ks:
        raise ParameterError(f"{path}: no data rows")
    return TabulatedPotential(ks, vs)


def evaluate_vhat(model: PotentialModel, k):
    """Radial profile at momentum magnitude k (scalar or array), k >= 0."""
    return model.vhat(_checked_finite("k", k, arrays=True))


# ---------------------------------------------------------------------------
# assumption battery


@dataclass(frozen=True)
class AssumptionCheck:
    id: str
    passed: bool
    assumed: bool = False
    witness: tuple | None = None
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    """The battery's result for one model at one nu; caveat is a class
    constant, not a field, so every report carries the same one."""

    model_kind: str
    nu: float
    entries: tuple[AssumptionCheck, ...]
    sign_changes: int = 0
    caveat = ("checked at the supplied nu only, not for every smaller "
              "interaction strength")

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def text(self) -> str:
        lines = [f"assumption report for {self.model_kind} model, nu = {self.nu:g}"]
        for e in self.entries:
            tag = "ASSUMED" if e.assumed else ("PASS" if e.passed else "FAIL")
            extra = ""
            if e.witness is not None:
                extra = f"  witness={e.witness}"
            if e.note:
                extra += f"  ({e.note})"
            lines.append(f"  {e.id:5s} {tag}{extra}")
        lines.append(f"  slope function sign changes on probe grid: {self.sign_changes}")
        lines.append(f"  note: {self.caveat}")
        return "\n".join(lines)


def default_probe_grid(model: PotentialModel, params: GasParameters):
    """Ascending probe grid of 512 momenta: 0, then 511 geometric steps
    from tiny momenta out past the relevant scales."""
    rt = math.sqrt(params.nu)
    k_hi = 8.0 * rt
    hint = model.support_hint()
    if math.isfinite(hint):
        k_hi = max(k_hi, 1.25 * hint)
    k_hi = min(k_hi, getattr(model, "k_max", math.inf))
    ks = np.geomspace(k_hi * 1e-6, k_hi, 511)
    return np.concatenate(([0.0], ks))


def _np_slope(nu, v0, k, vh, dvh):
    """The slope function NP(k) = k^2/(2 nu) + vhat(k)/vhat0 + k vhat'(k)/(2 vhat0).

    Takes vh = vhat(k) and dvh = vhat'(k), so a caller that needs them
    anyway makes no extra profile call; k is a float or an array.  The
    zeros of NP are the stationary points of the dispersion:
    omega'(k) = nu NP(k) / sqrt(k^2/4 + nu_k), and the energy space measure
    factor is d(p^2)/d(u^2) = 1/(nu NP(p)).
    """
    return k * k / (2.0 * nu) + vh / v0 + k * dvh / (2.0 * v0)


def validate_assumptions(model: PotentialModel,
                         params: GasParameters) -> AssumptionReport:
    """Run every checkable admissibility condition on the 512-point
    default_probe_grid.

    The battery can refute but not fully certify: integrability in
    position space is recorded as assumed, and the square integrability
    and no-plateau checks are decided from finite samples.  Failed entries
    always carry a witness tuple (k, value, threshold or interval).
    """
    probe = default_probe_grid(model, params)
    nu = params.nu
    v0 = model.vhat0
    entries = []

    # integrability of the position space profile: not observable from
    # momentum samples, recorded honestly as an assumption
    entries.append(AssumptionCheck(
        "A1", True, assumed=True,
        note="real integrable position profile assumed; finiteness of vhat "
             "is checked below"))

    vh = np.asarray(model.vhat(probe), dtype=float)
    finite = np.all(np.isfinite(vh))
    # k^2 overflows past k = 1e154; a zero vhat is zero density, not inf * 0
    with np.errstate(over="ignore", invalid="ignore"):
        k2v2 = np.where(vh == 0.0, 0.0, np.square(probe) * np.square(vh))
        thr = -v0 * np.square(probe) / (2.0 * nu)

    # square integrability, via the decay of k^2 vhat^2 on the outer grid
    tail = probe >= 0.5 * probe[-1]
    dens = k2v2[tail]
    peak = float(np.max(k2v2))
    ok_tail = bool(finite and (dens[-1] <= 1e-2 * max(peak, 1e-300)
                               or (dens[-1] <= 0.5 * dens[0] + 1e-300
                                   and np.all(np.diff(dens) <= 1e-12 * peak))))
    entries.append(AssumptionCheck(
        "A2", ok_tail,
        witness=None if ok_tail else (float(probe[-1]), float(dens[-1]), 1e-2 * peak),
        note="decay of k^2 vhat^2 at the probe grid edge; a finite probe "
             "can only refute"))

    # positivity: vhat(0) > 0 and vhat(k) above the stability threshold
    if v0 <= 0:
        entries.append(AssumptionCheck("A3", False, witness=(0.0, v0, 0.0),
                                       note="vhat(0) must be positive"))
    else:
        bad = np.nonzero(~(vh > thr))[0]
        if bad.size:
            i = int(bad[0])
            entries.append(AssumptionCheck(
                "A3", False, witness=(float(probe[i]), float(vh[i]), float(thr[i]))))
        else:
            entries.append(AssumptionCheck("A3", True))

    # evenness and rotation invariance hold by construction for radial
    # profiles; what remains checkable is finiteness on the grid
    entries.append(AssumptionCheck(
        "A4", bool(finite), assumed=True,
        witness=None if finite else (float(probe[int(np.argmax(~np.isfinite(vh)))]),
                                     float("nan"), 0.0),
        note="radial profile, even extension automatic"))
    entries.append(AssumptionCheck(
        "A5", True, assumed=True, note="rotation invariance by construction"))

    # smoothness near zero: the Gaussian is smooth everywhere and the flat
    # profile below its cutoff; a table's smoothness is assumed
    assumed_smooth = model.kind == "tabulated"
    entries.append(AssumptionCheck(
        "A6", True, assumed=assumed_smooth,
        note="interpolated tables are C1 by construction; higher derivatives "
             "assumed from the sampled profile" if assumed_smooth else ""))

    # curvature at zero: strict convexity of the dispersion near k = 0
    # requires 1 + 2 nu vhat''(0)/vhat(0) > 0; the weaker variant with a
    # single factor of nu is recorded alongside for reference
    if v0 > 0:
        d2 = model.d2vhat0()
        strict = 1.0 + 2.0 * nu * d2 / v0
        weak = 1.0 + nu * d2 / v0
        ok_curv = strict > 0
        entries.append(AssumptionCheck(
            "A7", bool(ok_curv),
            witness=None if ok_curv else (0.0, float(strict), 0.0),
            note=f"strict criterion value {strict:.6g}, weak variant {weak:.6g}"))
    else:
        entries.append(AssumptionCheck("A7", False, witness=(0.0, v0, 0.0),
                                       note="skipped, vhat(0) <= 0"))

    # global C1: every model is C1 by construction; the flat profile's
    # cosine ramp has zero slope at both junctions Lambda and 2 Lambda
    entries.append(AssumptionCheck("A8", True))

    # no-plateau condition on the slope function: finitely many sign
    # changes and a positive floor at large momentum
    if v0 > 0:
        pos = probe > 0
        interior = probe[pos]
        with np.errstate(over="ignore", invalid="ignore"):
            npk = np.asarray(_np_slope(nu, v0, interior, vh[pos],
                                       model.dvhat(interior)), dtype=float)
        signs = np.sign(npk)
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        floor = float(npk[-1])
        plateau = False
        small = np.abs(npk) < 1e-12
        run = 0
        for s in small:
            run = run + 1 if s else 0
            if run >= 3:
                plateau = True
                break
        ok_np = floor > 0 and not plateau
        entries.append(AssumptionCheck(
            "A9", bool(ok_np),
            witness=None if ok_np else (float(interior[-1]), floor, 0.0),
            note=f"{flips} sign change(s) on the probe grid"
                 + ("; plateau detected" if plateau else "")))
        nflips = flips
    else:
        entries.append(AssumptionCheck("A9", False, witness=(0.0, v0, 0.0),
                                       note="skipped, vhat(0) <= 0"))
        nflips = 0

    return AssumptionReport(model.kind, nu, tuple(entries), sign_changes=nflips)
