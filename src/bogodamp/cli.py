"""Command line front end: single rates, sweeps, assumption reports,
special function tables and the Monte Carlo cross check.

Inputs are dimensionless by default (k/sqrt(nu), beta*nu); --raw switches
to raw momentum and inverse temperature.  Output is CSV or JSON with a
fixed column set, deterministic for a fixed configuration including
seeds.  Exit codes: 0 success, 1 usage or config error, 2 assumption
validation failure, 3 numerical failure at one or more points.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .damping import (gamma_beliaev_asymptotic, gamma_beliaev_quadrature,
                      gamma_landau_asymptotic, gamma_landau_quadrature,
                      mc_oracle, select_regime)
from .bogoliubov import _omega_scalar
from .errors import (AssumptionError, BogodampError, DomainError,
                     ParameterError)
from .numerics import QuadratureSpec
from .params import make_params
from .potential import (FlatCutoffPotential, GaussianPotential, load_tabulated,
                        validate_assumptions)
from .specfun import beliaev_I, landau_Gk

CSV_HEADER = ("k,k_over_sqrt_nu,beta_nu,theta,method,"
              "gamma_B,gamma_B_err,gamma_L,gamma_L_err,total")
ROW_KEYS = CSV_HEADER.split(",")
METHOD_ORDER = ("quadrature", "asymptotic", "closed_form_regime", "mc")
RATE_NAMES = ("beliaev", "landau", "total")

_FLOAT_KEYS = {"nu", "vhat0", "v", "cutoff", "rel_tol", "abs_tol", "epsilon"}
_INT_KEYS = {"seed", "samples", "jobs"}
_BOOL_KEYS = {"raw", "skip_validation"}
_STR_KEYS = {"potential", "table", "beta_nu", "k", "rates", "methods",
             "output", "format", "theta", "process"}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_config(path):
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _coerce(key, sval):
    if key in _FLOAT_KEYS:
        try:
            return float(sval)
        except ValueError:
            raise ParameterError(f"config key {key}: not a number: {sval!r}")
    if key in _INT_KEYS:
        try:
            return int(sval)
        except ValueError:
            raise ParameterError(f"config key {key}: not an integer: {sval!r}")
    if key in _BOOL_KEYS:
        low = sval.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ParameterError(f"config key {key}: not a boolean: {sval!r}")
    if key in _STR_KEYS:
        return sval
    raise ParameterError(f"unknown config key: {key}")


def _merge_config(ns):
    if getattr(ns, "config", None):
        cfg = _read_config(ns.config)
        for key, sval in cfg.items():
            if getattr(ns, key, None) is None and hasattr(ns, key):
                setattr(ns, key, _coerce(key, sval))
            elif not hasattr(ns, key):
                raise ParameterError(f"unknown config key: {key}")


def _parse_values(text, name):
    """Comma list, or 'log:a:b:n' / 'lin:a:b:n' ranges."""
    text = text.strip()
    try:
        if text.startswith("log:") or text.startswith("lin:"):
            tag, a, b, n = text.split(":")
            a, b, n = float(a), float(b), int(n)
            if n < 1:
                raise ValueError("empty range")
            if tag == "log":
                if a <= 0 or b <= 0:
                    raise ValueError("log range endpoints must be > 0")
                vals = np.geomspace(a, b, n)
            else:
                vals = np.linspace(a, b, n)
        else:
            vals = np.array([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError as exc:
        raise ParameterError(f"{name}: cannot parse {text!r} ({exc})")
    if vals.size == 0:
        raise ParameterError(f"{name}: empty value list")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise ParameterError(f"{name}: values must be finite and > 0")
    return [float(v) for v in vals]


def _parse_subset(text, allowed, name):
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise ParameterError(f"{name}: empty list")
    for t in toks:
        if t not in allowed:
            raise ParameterError(
                f"{name}: unknown entry {t!r} (allowed: {', '.join(allowed)})")
    return tuple(dict.fromkeys(toks))


def _build_model(ns, nu):
    kind = (ns.potential or "gaussian").lower()
    if kind == "gaussian":
        v = ns.v if ns.v is not None else 0.1 * nu
        return GaussianPotential(v=v, nu=nu)
    if kind == "flat":
        lam = ns.cutoff if ns.cutoff is not None else math.inf
        return FlatCutoffPotential(v0=ns.vhat0 if ns.vhat0 is not None else 1.0,
                                   Lambda=lam)
    if kind == "tabulated":
        if not ns.table:
            raise ParameterError("potential 'tabulated' requires --table PATH")
        return load_tabulated(ns.table)
    raise ParameterError(
        f"unknown potential {kind!r} (allowed: gaussian, flat, tabulated)")


def _quad_spec(ns):
    kw = {}
    if getattr(ns, "rel_tol", None) is not None:
        kw["rel_tol"] = ns.rel_tol
    if getattr(ns, "abs_tol", None) is not None:
        kw["abs_tol"] = ns.abs_tol
    return QuadratureSpec(**kw) if kw else QuadratureSpec()


def _fmt_cell(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return repr(float(x))


def _write(text, output):
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render(rows, cols, fmt):
    """Rows as CSV with header `cols`, or as a JSON list of objects."""
    if fmt != "csv":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(cols)]
    lines.extend(",".join(_fmt_cell(r[c]) for c in cols) for r in rows)
    return "\n".join(lines) + "\n"


def _point(params, model, k, method, rates, quad, ns):
    """One sweep point.  Returns (row, failed).

    Every rate is a pure function of (params, model, k, quad), so points
    share params and model and the output does not depend on task order.
    """
    nu = params.nu
    kdim = k / math.sqrt(nu)
    bn = params.beta * nu
    row = {key: None for key in ROW_KEYS}
    row["k"] = k
    row["k_over_sqrt_nu"] = kdim
    row["beta_nu"] = bn
    row["method"] = method
    want_b = "beliaev" in rates or "total" in rates
    want_l = "landau" in rates or "total" in rates
    try:
        w_k = _omega_scalar(params, model, k)
        row["theta"] = params.beta * w_k
        gb = gl = None
        if method == "quadrature":
            labels = []
            if want_b:
                rb = gamma_beliaev_quadrature(params, model, k, quad)
                gb, row["gamma_B_err"] = rb.value, rb.abs_error
                labels.append(rb.method)
            if want_l:
                rl = gamma_landau_quadrature(params, model, k, quad)
                gl, row["gamma_L_err"] = rl.value, rl.abs_error
                labels.append(rl.method)
            if labels:
                row["method"] = (labels[0] if all(x == labels[0] for x in labels)
                                 else "generic_scan")
        elif method == "asymptotic":
            if want_b:
                gb, row["gamma_B_err"] = gamma_beliaev_asymptotic(
                    params, model, k, "full"), 0.0
            if want_l:
                gl, row["gamma_L_err"] = gamma_landau_asymptotic(
                    params, model, k, "full"), 0.0
            row["method"] = "asymptotic"
        elif method == "closed_form_regime":
            if want_b:
                gb = gamma_beliaev_asymptotic(
                    params, model, k, select_regime(params, model, k, "beliaev"))
                row["gamma_B_err"] = 0.0
            if want_l:
                gl = gamma_landau_asymptotic(
                    params, model, k, select_regime(params, model, k, "landau"))
                row["gamma_L_err"] = 0.0
            row["method"] = "closed_form_regime"
        elif method == "mc":
            seed = ns.seed if ns.seed is not None else 1234
            n = ns.samples if ns.samples is not None else 1_000_000
            eps = getattr(ns, "epsilon", None)
            if want_b:
                gb, row["gamma_B_err"] = mc_oracle(
                    params, model, k, "beliaev", eps, n, seed)
            if want_l:
                gl, row["gamma_L_err"] = mc_oracle(
                    params, model, k, "landau", eps, n, seed)
            row["method"] = "monte_carlo"
        else:
            raise ParameterError(f"unknown method {method!r}")
        row["gamma_B"] = gb
        row["gamma_L"] = gl
        if "total" in rates and gb is not None and gl is not None:
            row["total"] = gb + gl
        return row, False
    except BogodampError as exc:
        print(f"error at k/sqrt(nu)={kdim!r}, beta*nu={bn!r}, "
              f"method={method}: {exc}", file=sys.stderr)
        for key in ("theta", "gamma_B", "gamma_B_err", "gamma_L",
                    "gamma_L_err", "total"):
            row[key] = "error"
        return row, True


def _validate_or_die(ns, params, model):
    if ns.skip_validation:
        return 0
    report = validate_assumptions(model, params)
    if not report.passed:
        print(report.text(), file=sys.stderr)
        return 2
    return 0


def _resolve_grid(ns):
    """(params list over beta, k list in raw units, nu)."""
    nu = ns.nu if ns.nu is not None else 1.0
    vhat0 = ns.vhat0 if ns.vhat0 is not None else 1.0
    if ns.beta_nu is None:
        raise ParameterError("missing beta values: --beta-nu or config key beta_nu")
    if ns.k is None:
        raise ParameterError("missing momentum values: --k or config key k")
    bvals = _parse_values(ns.beta_nu, "beta_nu")
    kvals = _parse_values(ns.k, "k")
    if ns.raw:
        betas = sorted(bvals)
        ks = sorted(kvals)
    else:
        betas = sorted(b / nu for b in bvals)
        ks = sorted(kd * math.sqrt(nu) for kd in kvals)
    plist = [make_params(nu, b, vhat0) for b in betas]
    return plist, ks, nu


def _cmd_sweep(ns, parser):
    _merge_config(ns)
    plist, ks, nu = _resolve_grid(ns)
    model = _build_model(ns, nu)
    rates = _parse_subset(ns.rates or "total", RATE_NAMES, "rates")
    methods = _parse_subset(ns.methods or "quadrature", METHOD_ORDER, "methods")
    methods = tuple(m for m in METHOD_ORDER if m in methods)
    quad = _quad_spec(ns)
    rc = _validate_or_die(ns, plist[0], model)
    if rc:
        return rc
    jobs = ns.jobs if ns.jobs is not None else 1
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    tasks = [(p, model, k, m, rates, quad, ns)
             for p in plist for k in ks for m in methods]
    if jobs == 1:
        results = [_point(*t) for t in tasks]
    else:
        # pays for Monte Carlo points, whose numpy work releases the GIL
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda t: _point(*t), tasks))
    rows = [r for (r, _f) in results]
    failed = any(f for (_r, f) in results)
    _write(_render(rows, ROW_KEYS, ns.format or "csv"), ns.output)
    return 3 if failed else 0


def _cmd_validate(ns, parser):
    _merge_config(ns)
    nu = ns.nu if ns.nu is not None else 1.0
    vhat0 = ns.vhat0 if ns.vhat0 is not None else 1.0
    bn = float(ns.beta_nu) if ns.beta_nu is not None else 1.0
    params = make_params(nu, bn / nu, vhat0)
    model = _build_model(ns, nu)
    report = validate_assumptions(model, params)
    if (ns.format or "text") == "json":
        payload = {
            "model": report.model_kind,
            "nu": report.nu,
            "passed": report.passed,
            "sign_changes": report.sign_changes,
            "caveat": report.caveat,
            "checks": [
                {"id": e.id, "passed": e.passed, "assumed": e.assumed,
                 "witness": e.witness, "note": e.note}
                for e in report.entries
            ],
        }
        out = json.dumps(payload, indent=2) + "\n"
    else:
        out = report.text() + "\n"
    _write(out, ns.output)
    return 0 if report.passed else 2


def _cmd_specfun(ns, parser):
    _merge_config(ns)
    thetas = _parse_values(ns.theta or "0.01,0.1,1,10,50", "theta")
    rows = []
    for th in sorted(thetas):
        rows.append({
            "theta": th,
            "I": beliaev_I(th),
            "G2": landau_Gk(2, th),
            "G3": landau_Gk(3, th),
            "G4": landau_Gk(4, th),
        })
    _write(_render(rows, ("theta", "I", "G2", "G3", "G4"), ns.format or "csv"),
           ns.output)
    return 0


def _cmd_oracle(ns, parser):
    _merge_config(ns)
    plist, ks, nu = _resolve_grid(ns)
    if len(plist) != 1 or len(ks) != 1:
        raise ParameterError("oracle takes a single beta value and a single k")
    params, k = plist[0], ks[0]
    model = _build_model(ns, nu)
    rc = _validate_or_die(ns, params, model)
    if rc:
        return rc
    quad = _quad_spec(ns)
    seed = ns.seed if ns.seed is not None else 1234
    n = ns.samples if ns.samples is not None else 1_000_000
    processes = ((ns.process,) if ns.process else ("beliaev", "landau"))
    rows = []
    failed = False
    for proc in processes:
        try:
            est, err = mc_oracle(params, model, k, proc, ns.epsilon, n, seed)
            if proc == "beliaev":
                ref = gamma_beliaev_quadrature(params, model, k, quad)
            else:
                ref = gamma_landau_quadrature(params, model, k, quad)
            sig = math.sqrt(err * err + ref.abs_error * ref.abs_error)
            Z = (est - ref.value) / sig if sig > 0 else 0.0
            rows.append({"process": proc, "mc": est, "mc_stderr": err,
                         "quadrature": ref.value,
                         "quadrature_err": ref.abs_error, "z": Z})
        except BogodampError as exc:
            print(f"error in oracle ({proc}): {exc}", file=sys.stderr)
            rows.append({"process": proc, "mc": "error", "mc_stderr": "error",
                         "quadrature": "error", "quadrature_err": "error",
                         "z": "error"})
            failed = True
    cols = ("process", "mc", "mc_stderr", "quadrature", "quadrature_err", "z")
    _write(_render(rows, cols, ns.format or "csv"), ns.output)
    return 3 if failed else 0


def _add_model_args(p):
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--potential", help="gaussian, flat or tabulated")
    p.add_argument("--nu", type=float, help="interaction energy scale (default 1)")
    p.add_argument("--vhat0", type=float,
                   help="zero momentum interaction amplitude (default 1)")
    p.add_argument("--v", type=float,
                   help="gaussian profile amplitude (default 0.1 nu)")
    p.add_argument("--cutoff", "--lambda", dest="cutoff", type=float,
                   help="flat profile cutoff momentum (default none)")
    p.add_argument("--table", help="tabulated profile file path")
    p.add_argument("--skip-validation", action="store_const", const=True,
                   default=None, help="skip the assumption checks")
    p.add_argument("--raw", action="store_const", const=True, default=None,
                   help="interpret --k and --beta-nu as raw k and beta")


def _add_grid_args(p, multi):
    hint = "list or log:a:b:n range" if multi else "value"
    p.add_argument("--k", help=f"momentum k/sqrt(nu) {hint}")
    p.add_argument("--beta-nu", dest="beta_nu", help=f"beta*nu {hint}")


def _add_out_args(p, formats=("csv", "json")):
    p.add_argument("--output", "-o", help="output path (default stdout)")
    p.add_argument("--format", choices=formats, help=f"default {formats[0]}")


def _add_quad_args(p):
    p.add_argument("--rel-tol", dest="rel_tol", type=float,
                   help="quadrature relative tolerance")
    p.add_argument("--abs-tol", dest="abs_tol", type=float,
                   help="quadrature absolute tolerance")


def _add_mc_args(p):
    p.add_argument("--seed", type=int, help="RNG seed (default 1234)")
    p.add_argument("--samples", type=int, help="sample count (default 1e6)")
    p.add_argument("--epsilon", type=float,
                   help="delta mollifier width (default 1e-3 omega(k))")


def build_parser():
    parser = _Parser(prog="bogodamp",
                     description="Bogoliubov spectrum and damping rates")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("rate", parents=[], help="single point rates")
    _add_model_args(p)
    _add_grid_args(p, multi=False)
    p.add_argument("--rates", help="subset of beliaev,landau,total")
    p.add_argument("--methods",
                   help="subset of quadrature,asymptotic,closed_form_regime,mc")
    _add_quad_args(p)
    _add_mc_args(p)
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    _add_out_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sweep", help="parameter sweep over (k, beta)")
    _add_model_args(p)
    _add_grid_args(p, multi=True)
    p.add_argument("--rates", help="subset of beliaev,landau,total")
    p.add_argument("--methods",
                   help="subset of quadrature,asymptotic,closed_form_regime,mc")
    _add_quad_args(p)
    _add_mc_args(p)
    p.add_argument("--jobs", type=int, help="concurrent points (default 1)")
    _add_out_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="assumption report for a model")
    _add_model_args(p)
    p.add_argument("--beta-nu", dest="beta_nu", help="beta*nu (default 1)")
    _add_out_args(p, formats=("text", "json"))
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("specfun", help="tabulate I(theta) and G_k(theta)")
    p.add_argument("--config", help="key = value file; flags override it")
    p.add_argument("--theta", help="theta list or log:a:b:n range")
    _add_out_args(p)
    p.set_defaults(func=_cmd_specfun)

    p = sub.add_parser("oracle", help="Monte Carlo cross check at one point")
    _add_model_args(p)
    _add_grid_args(p, multi=False)
    _add_quad_args(p)
    _add_mc_args(p)
    p.add_argument("--process", choices=("beliaev", "landau"),
                   help="restrict to one process")
    _add_out_args(p)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns, parser)
    except (ParameterError, DomainError) as exc:
        return _fail(str(exc), 1)
    except AssumptionError as exc:
        return _fail(str(exc), 2)
    except BogodampError as exc:
        return _fail(str(exc), 3)
    except OSError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
