"""Command line front end: single rates, sweeps, assumption reports,
special function tables and the Monte Carlo cross check.

Inputs are dimensionless by default (k/sqrt(nu), beta*nu); --raw switches
to raw momentum and inverse temperature.  A `--config` file holds
`key = value` lines whose keys are the long flag names; they are parsed
by argparse like the flags, which override them.  Output is CSV or JSON
with a fixed column set, deterministic for a fixed configuration
including seeds.  Every rate of `rate`, `sweep` and `oracle` comes from
one dispatch, `_rate`; a quadrature rate that did not converge, or a
quadrature or Monte Carlo rate whose error bar is too large for its value
on a non-empty support, is an `error` cell, never a number.
Exit codes: 0 success, 1 usage or config error, 2 assumption validation
failure, 3 numerical failure at one or more points or an oracle |z| > 5.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .damping import (detect_support, gamma_beliaev_asymptotic,
                      gamma_beliaev_quadrature, gamma_landau_asymptotic,
                      gamma_landau_quadrature, MC_MIN_SAMPLES, mc_oracle,
                      select_regime)
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
PROCESSES = ("beliaev", "landau")
RATE_NAMES = PROCESSES + ("total",)
# Largest |z| of an oracle row that exits 0; its numbers print either way.
Z_MAX = 5.0

_BOOL_KEYS = {"raw", "skip_validation"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


class _UsageError(ParameterError):
    """A usage error, with the (sub)parser that found it."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that main can tell a bad flag (exit 1
    after the usage line) from a bad config file value (a config error)."""

    def error(self, message):
        raise _UsageError(self, message)


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _config_tokens(path, keys):
    """A `key = value` file as the flags it stands for.

    Each key is the long flag name with or without its dashes and must be
    one of `keys`; `key = value` becomes `--key=value`, and a boolean key
    becomes the bare flag when true and nothing when false.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().replace("-", "_"), val.strip()
        if key not in keys:
            raise ParameterError(f"unknown config key: {key}")
        flag = "--" + key.replace("_", "-")
        if key in _BOOL_KEYS:
            if val.lower() not in _BOOL_WORDS:
                raise ParameterError(f"config key {key}: not a boolean: {val!r}")
            if _BOOL_WORDS[val.lower()]:
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={val}")
    return tokens


def _with_config(parser, ns, argv):
    """Re-parse `argv` with the config file's flags put before its own,
    so that flags given on the command line override the file."""
    keys = set(vars(ns)) - {"command", "func", "config"}
    tokens = _config_tokens(ns.config, keys)
    try:
        return parser.parse_args([ns.command, *tokens, *argv[1:]])
    except _UsageError as exc:
        raise ParameterError(f"config {ns.config}: {exc}") from None


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


def _nu(ns):
    """--nu (default 1), checked to be finite and > 0."""
    nu = ns.nu if ns.nu is not None else 1.0
    if not (math.isfinite(nu) and nu > 0):
        raise ParameterError(f"nu must be finite and > 0, got {nu!r}")
    return nu


def _quad_spec(ns):
    return QuadratureSpec(**{key: getattr(ns, key) for key in ("rel_tol", "abs_tol")
                             if getattr(ns, key) is not None})


def _mc_options(ns):
    """mc_oracle's (epsilon, n_samples, seed) from --epsilon, --samples
    and --seed.

    Checked up front, so a bad value is a usage error (exit 1) and not a
    row of numerical failures.  Callers pass the triple positionally, as
    perfbench's recorder expects.
    """
    eps = ns.epsilon
    if eps is not None and not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"epsilon must be finite and > 0, got {eps!r}")
    n = ns.samples if ns.samples is not None else 1_000_000
    if n < MC_MIN_SAMPLES:
        raise ParameterError(f"samples must be >= {MC_MIN_SAMPLES}, got {n}")
    seed = ns.seed if ns.seed is not None else 1234
    return eps, n, seed


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


def _rate(method, params, model, k, process, quad, mc):
    """One rate by one method: (value, error, label).

    The rate functions are looked up as module globals at call time, so
    that wrapping them here (as perfbench does) sees every call.  A
    quadrature rate that did not converge, or whose error bar is not
    below its value on a non-empty support, raises instead of returning
    a number.  So does a Monte Carlo estimate on a non-empty support
    resting on fewer than about two weighed draws: with non-negative
    draws stderr / estimate is sqrt(1/n_eff - 1/n), n_eff the effective
    number of weighed draws (Kish), so a single draw passes stderr <
    estimate; stderr must be below estimate / sqrt(2).  On an empty
    support the rate is a true zero, and the estimate, zero or a few
    draws in the mollified shell's tails, is returned as it is.
    """
    if method == "quadrature":
        fn = (gamma_beliaev_quadrature if process == "beliaev"
              else gamma_landau_quadrature)
        r = fn(params, model, k, quad)
        if not r.converged or (r.support.segments
                               and not r.abs_error < abs(r.value)):
            raise BogodampError(
                f"{process} rate by {r.method} is not usable: {r.value!r} "
                f"+- {r.abs_error!r}, converged={r.converged}")
        return r.value, r.abs_error, r.method
    if method == "mc":
        est, err = mc_oracle(params, model, k, process, *mc)
        if (not err < abs(est) * math.sqrt(0.5)
                and detect_support(params, model, k, process).segments):
            raise BogodampError(
                f"{process} rate by monte_carlo is not usable: {est!r} "
                f"+- {err!r} rests on fewer than two weighed draws")
        return est, err, "monte_carlo"
    regime = ("full" if method == "asymptotic"
              else select_regime(params, model, k, process))
    fn = (gamma_beliaev_asymptotic if process == "beliaev"
          else gamma_landau_asymptotic)
    return fn(params, model, k, regime), 0.0, method


def _why(exc):
    """A point's failure as one phrase; an arithmetic fault names its type."""
    return (str(exc) if isinstance(exc, BogodampError)
            else f"{type(exc).__name__}: {exc}")


def _point(params, model, k, method, rates, quad, mc):
    """One sweep point.  Returns (row, failed).

    Every rate is a pure function of (params, model, k, quad, mc), so
    points share params and model and the output does not depend on task
    order.  The row's method is the label the rates share, or
    generic_scan when the two quadrature rates took different routes.
    """
    nu = params.nu
    kdim = k / math.sqrt(nu)
    bn = params.beta * nu
    row = {key: None for key in ROW_KEYS}
    row["k"] = k
    row["k_over_sqrt_nu"] = kdim
    row["beta_nu"] = bn
    row["method"] = method
    try:
        row["theta"] = params.beta * _omega_scalar(params, model, k)
        labels = []
        for process, col in (("beliaev", "gamma_B"), ("landau", "gamma_L")):
            if process in rates or "total" in rates:
                row[col], row[col + "_err"], label = _rate(
                    method, params, model, k, process, quad, mc)
                labels.append(label)
        row["method"] = (labels[0] if all(x == labels[0] for x in labels)
                         else "generic_scan")
        if "total" in rates:
            row["total"] = row["gamma_B"] + row["gamma_L"]
        return row, False
    except (BogodampError, ArithmeticError) as exc:
        print(f"error at k/sqrt(nu)={kdim!r}, beta*nu={bn!r}, "
              f"method={method}: {_why(exc)}", file=sys.stderr)
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


def _amplitude(ns, model):
    """The rate amplitude: --vhat0, else the model's own vhat(0).

    A profile whose vhat(0) is not positive fails assumption A3; it gets
    amplitude 1, so that the assumption report, not a parameter error,
    says so.
    """
    if ns.vhat0 is not None:
        return ns.vhat0
    return model.vhat0 if model.vhat0 > 0 else 1.0


def _resolve_grid(ns):
    """(params list over beta, k list in raw units, model)."""
    nu = _nu(ns)
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
    model = _build_model(ns, nu)
    vhat0 = _amplitude(ns, model)
    plist = [make_params(nu, b, vhat0) for b in betas]
    return plist, ks, model


def _cmd_sweep(ns):
    plist, ks, model = _resolve_grid(ns)
    rates = _parse_subset(ns.rates or "total", RATE_NAMES, "rates")
    methods = _parse_subset(ns.methods or "quadrature", METHOD_ORDER, "methods")
    methods = tuple(m for m in METHOD_ORDER if m in methods)
    quad = _quad_spec(ns)
    mc = _mc_options(ns)
    rc = _validate_or_die(ns, plist[0], model)
    if rc:
        return rc
    jobs = ns.jobs if ns.jobs is not None else 1
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    tasks = [(p, model, k, m, rates, quad, mc)
             for p in plist for k in ks for m in methods]
    if jobs == 1:
        results = [_point(*t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda t: _point(*t), tasks))
    rows = [r for (r, _f) in results]
    failed = any(f for (_r, f) in results)
    _write(_render(rows, ROW_KEYS, ns.format or "csv"), ns.output)
    return 3 if failed else 0


def _cmd_validate(ns):
    nu = _nu(ns)
    bvals = _parse_values("1" if ns.beta_nu is None else ns.beta_nu, "beta_nu")
    if len(bvals) != 1:
        raise ParameterError("validate takes a single beta_nu value")
    bn = bvals[0]
    model = _build_model(ns, nu)
    params = make_params(nu, bn / nu, _amplitude(ns, model))
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


def _cmd_specfun(ns):
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


def _cmd_oracle(ns):
    plist, ks, model = _resolve_grid(ns)
    if len(plist) != 1 or len(ks) != 1:
        raise ParameterError("oracle takes a single beta value and a single k")
    params, k = plist[0], ks[0]
    quad = _quad_spec(ns)
    mc = _mc_options(ns)
    rc = _validate_or_die(ns, params, model)
    if rc:
        return rc
    cols = ("process", "mc", "mc_stderr", "quadrature", "quadrature_err", "z")
    rows = []
    failed = False
    for proc in ((ns.process,) if ns.process else PROCESSES):
        try:
            est, err, _ = _rate("mc", params, model, k, proc, quad, mc)
            ref, ref_err, _ = _rate("quadrature", params, model, k, proc,
                                    quad, mc)
            sig = math.sqrt(err * err + ref_err * ref_err)
            Z = (est - ref) / sig if sig > 0 else 0.0
            rows.append(dict(zip(cols, (proc, est, err, ref, ref_err, Z))))
            if not abs(Z) <= Z_MAX:
                print(f"error in oracle ({proc}): |z| = {abs(Z):g} exceeds "
                      f"{Z_MAX:g}", file=sys.stderr)
                failed = True
        except (BogodampError, ArithmeticError) as exc:
            print(f"error in oracle ({proc}): {_why(exc)}", file=sys.stderr)
            rows.append(dict(zip(cols, (proc,) + ("error",) * 5)))
            failed = True
    _write(_render(rows, cols, ns.format or "csv"), ns.output)
    return 3 if failed else 0


def _add_config_arg(p):
    p.add_argument("--config", help="key = value file; flags override it")


def _add_model_args(p):
    _add_config_arg(p)
    p.add_argument("--potential", help="gaussian, flat or tabulated")
    p.add_argument("--nu", type=float, help="interaction energy scale (default 1)")
    p.add_argument("--vhat0", type=float,
                   help="rate amplitude vhat(0) (default: the profile's "
                        "own vhat(0); 1 for the flat profile)")
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
                   help="delta mollifier width (default 1e-3 omega(k); biased "
                        "at small k: z > 15 at --v 0.3 --k 0.05 --beta-nu 1000)")


def build_parser():
    parser = _Parser(prog="bogodamp",
                     description="Bogoliubov spectrum and damping rates")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    # rate is the one point sweep; --jobs is hidden there
    for name, multi, help_, jobs_help in (
            ("rate", False, "single point rates", argparse.SUPPRESS),
            ("sweep", True, "parameter sweep over (k, beta)",
             "concurrent points (default 1)")):
        p = sub.add_parser(name, help=help_)
        _add_model_args(p)
        _add_grid_args(p, multi=multi)
        p.add_argument("--rates", help="subset of " + ",".join(RATE_NAMES))
        p.add_argument("--methods", help="subset of " + ",".join(METHOD_ORDER))
        _add_quad_args(p)
        _add_mc_args(p)
        p.add_argument("--jobs", type=int, help=jobs_help)
        _add_out_args(p)
        p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="assumption report for a model")
    _add_model_args(p)
    p.add_argument("--beta-nu", dest="beta_nu", help="beta*nu (default 1)")
    _add_out_args(p, formats=("text", "json"))
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("specfun", help="tabulate I(theta) and G_k(theta)")
    _add_config_arg(p)
    p.add_argument("--theta", help="theta list or log:a:b:n range")
    _add_out_args(p)
    p.set_defaults(func=_cmd_specfun)

    p = sub.add_parser("oracle", help="Monte Carlo cross check at one point")
    _add_model_args(p)
    _add_grid_args(p, multi=False)
    _add_quad_args(p)
    _add_mc_args(p)
    p.add_argument("--process", choices=PROCESSES,
                   help="restrict to one process")
    _add_out_args(p)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        # argparse exits with 2 on usage errors; the contract here wants 1
        exc.parser.print_usage(sys.stderr)
        exc.parser.exit(1, f"{exc.parser.prog}: error: {exc}\n")
    try:
        if ns.config:
            ns = _with_config(parser, ns, argv)
        return ns.func(ns)
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
