"""Workload inputs, made from the seed, and the timed body of each workload.

The load is a closed loop: one client asks for the next rate only when the
previous one has finished.  `readme_sweep` and `mc_oracle` go through
`bogodamp.cli.main` in-process; `hard_points` and `generic_scan` call the
public library functions.  Every rate the workload asks for is one
operation, recorded by a `Recorder` for the correctness gate.

Functions are looked up on their modules at call time, so wrappers a
tracer installs are the ones that run.
"""
from __future__ import annotations

import csv
import itertools
import math
import os
import random
import time
from dataclasses import dataclass

import numpy as np

import bogodamp.cli as cli
import bogodamp.damping as damping
from bogodamp.bogoliubov import _omega_scalar, branch_table
from bogodamp.params import make_params
from bogodamp.potential import GaussianPotential, load_tabulated

WORKLOADS = ("readme_sweep", "hard_points", "generic_scan", "mc_oracle")
DEFAULT_SEED = 0

NU = 1.0
V = 0.1
README_K = (1e-3, 0.2, 9)                 # the README's log:1e-3:0.2:9
README_BETA_NU = (50.0, 200.0, 1000.0)
# (label, process, beta*nu, k/sqrt(nu)); ROADMAP's tail-latency points plus
# the silent-zero Landau point.
HARD_POINTS = (
    ("B_bn50_k1e-8", "beliaev", 50.0, 1e-8),
    ("B_bn1e4_k1e-6", "beliaev", 1e4, 1e-6),
    ("L_bn1e6_k0.05", "landau", 1e6, 0.05),
    ("L_bn1e5_k2", "landau", 1e5, 2.0),
    ("L_bn1e6_k1", "landau", 1e6, 1.0),
)
GENERIC_K = (0.2, 0.4, 0.6)
GENERIC_BETA_NU = 4.0
ORACLE_K = 0.3
ORACLE_BETA_NU = 10.0
ORACLE_SAMPLES = 4_000_000
JITTER = 0.1                              # +-10 % on mc_oracle
PROFILE_NAME = "maxon_roton.dat"


@dataclass(frozen=True)
class Inputs:
    """Everything a workload asks for; a pure function of (workload, seed)."""

    workload: str
    points: tuple          # (label, process, method, beta*nu, k/sqrt(nu))
    ks: tuple = ()         # k/sqrt(nu) grid of a CLI run
    beta_nus: tuple = ()
    mc_seed: int | None = None


def _jitter(rng, k, lo, hi):
    """k times a log-uniform factor in [e^lo, e^hi]; seed 0 keeps k."""
    return k if rng is None else k * math.exp(rng.uniform(lo, hi))


def make_inputs(workload, seed, draw=0):
    """Inputs of round `draw` of a run with `seed`; a pure function of both.

    Seed 0 gives the documented points exactly in every round; any other
    seed jitters k on readme_sweep and mc_oracle afresh in each round, so
    a run's medians average over the jitter instead of depending on one
    draw.  hard_points and generic_scan are not jittered: their cost jumps
    between neighbouring k (see README.md).
    """
    rng = random.Random(f"{workload}:{seed}:{draw}") if seed != 0 else None
    if workload == "readme_sweep":
        lo, hi, n = README_K
        half = 0.5 * math.log(hi / lo) / (n - 1)
        # one k per log-grid cell, centred on the README grid point
        ks = tuple(_jitter(rng, float(k), -half, half)
                   for k in np.geomspace(lo, hi, n))
        points = tuple((f"{p[0].upper()}_bn{bn:g}_k{k:.6g}", p, "quadrature",
                        bn, k)
                       for bn in README_BETA_NU for k in ks
                       for p in ("beliaev", "landau"))
        return Inputs(workload, points, ks, README_BETA_NU)
    if workload == "hard_points":
        return Inputs(workload, tuple((lab, p, "quadrature", bn, k)
                                      for lab, p, bn, k in HARD_POINTS))
    if workload == "generic_scan":
        points = tuple((f"{p[0].upper()}_k{k:g}", p, "quadrature",
                        GENERIC_BETA_NU, k)
                       for k in GENERIC_K for p in ("beliaev", "landau"))
        return Inputs(workload, points, GENERIC_K, (GENERIC_BETA_NU,))
    if workload == "mc_oracle":
        k = _jitter(rng, ORACLE_K, math.log(1.0 - JITTER),
                    math.log(1.0 + JITTER))
        points = tuple((f"{p[0].upper()}_{m}", p, m, ORACLE_BETA_NU, k)
                       for p in ("beliaev", "landau")
                       for m in ("mc", "quadrature"))
        return Inputs(workload, points, (k,), (ORACLE_BETA_NU,),
                      mc_seed=0 if rng is None else rng.getrandbits(63))
    raise ValueError(f"unknown workload {workload!r}")


def write_profile(path):
    """The maxon-roton profile of tests/conftest.py::maxon_roton_table."""
    k = np.linspace(0.0, 12.0, 481)
    vals = NU * (np.exp(-0.02 * k ** 2) - 1.5 * np.exp(-((k - 2.0) / 0.8) ** 2))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# maxon-roton interaction profile, vhat(k) over k\n")
        for a, b in zip(k, vals):
            fh.write(f"{float(a)!r} {float(b)!r}\n")


def build_model(workload, profile_path):
    if workload == "generic_scan":
        return load_tabulated(profile_path)
    return GaussianPotential(v=V, nu=NU)


def setup(workload, profile_path):
    """Model, params and first branch table of a workload's first point."""
    model = build_model(workload, profile_path)
    _lab, _p, _m, bn, kd = make_inputs(workload, DEFAULT_SEED).points[0]
    params = make_params(NU, bn / NU, model.vhat0)
    k = kd * math.sqrt(NU)
    branch_table(params, model, _omega_scalar(params, model, k))
    return model, params


@dataclass
class Op:
    """One rate value a workload asked for, and what came back."""

    label: str
    process: str
    method: str            # "quadrature" or "mc"
    k: float               # k/sqrt(nu)
    beta_nu: float
    value: float | None = None
    abs_error: float | None = None
    converged: bool = True
    support: bool | None = None        # conservation support not empty
    error: str | None = None
    seconds: float = 0.0
    ref: float | None = None           # closed form, where it applies
    z: float | None = None             # oracle z score


class Recorder:
    """Times and records every operation of a pass.

    `use` sets the inputs whose labels name the operations that follow.
    For CLI workloads `patch_cli` wraps the rate functions under the names
    `bogodamp.cli` imported them; `restore` puts the previous objects back.
    """

    def __init__(self, tracer=None):
        self.labels = {}
        self.tracer = tracer
        self.ops = []
        self._ids = itertools.count(1)
        self._patched = []

    def use(self, inputs):
        self.labels = {(p, m, bn, k): lab for lab, p, m, bn, k in inputs.points}

    def call(self, process, method, fn, params, model, k, *rest):
        kd = k / math.sqrt(params.nu)
        bn = params.beta * params.nu
        key = (process, method, bn, kd)
        op = Op(self.labels.get(key, f"unexpected_{key}"), process, method,
                kd, bn)
        if self.tracer is not None:
            self.tracer.set_op(next(self._ids))
        t0 = time.perf_counter()
        try:
            res = fn(params, model, k, *rest)
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            op.seconds = time.perf_counter() - t0
            self.ops.append(op)
        if method == "mc":
            op.value, op.abs_error = res
        else:
            op.value, op.abs_error = res.value, res.abs_error
            op.converged = res.converged
            op.support = bool(res.support is not None and res.support.segments)
        return res

    def patch_cli(self):
        def wrap(fn, process, method):
            def recorded(params, model, k, *rest):
                proc = rest[0] if process is None else process
                return self.call(proc, method, fn, params, model, k, *rest)
            return recorded

        for attr, proc, method in (
                ("gamma_beliaev_quadrature", "beliaev", "quadrature"),
                ("gamma_landau_quadrature", "landau", "quadrature"),
                ("mc_oracle", None, "mc")):
            orig = getattr(cli, attr)
            self._patched.append((attr, orig))
            setattr(cli, attr, wrap(orig, proc, method))
        return self

    def restore(self):
        for attr, orig in reversed(self._patched):
            setattr(cli, attr, orig)
        self._patched.clear()


def _csv_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """A workload's inputs, model and timed body.

    `variants` are the body configurations one round of the loop runs:
    the README sweep runs with `--jobs 2` and then `--jobs 1`; every other
    body is single threaded and has one variant.
    """

    def __init__(self, name, seed, out_dir):
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.profile = os.path.join(out_dir, PROFILE_NAME)
        if name == "generic_scan":
            write_profile(self.profile)
        self.model = build_model(name, self.profile)
        self.via_cli = name in ("readme_sweep", "mc_oracle")
        self.variants = (2, 1) if name == "readme_sweep" else (1,)

    def output_path(self, jobs):
        return os.path.join(self.out_dir, f"{self.name}-jobs{jobs}.csv")

    def inputs(self, draw):
        return make_inputs(self.name, self.seed, draw)

    def run_pass(self, rec, jobs, inputs):
        """One pass of the timed body; returns the CLI exit code or 0."""
        if self.name == "readme_sweep":
            return cli.main([
                "sweep", "--v", repr(V), "--nu", repr(NU),
                "--k", ",".join(repr(k) for k in inputs.ks),
                "--beta-nu", ",".join(repr(b) for b in inputs.beta_nus),
                "--methods", "quadrature,asymptotic", "--jobs", str(jobs),
                "-o", self.output_path(jobs)])
        if self.name == "mc_oracle":
            return cli.main([
                "oracle", "--v", repr(V), "--nu", repr(NU),
                "--k", repr(inputs.ks[0]),
                "--beta-nu", repr(inputs.beta_nus[0]),
                "--samples", str(ORACLE_SAMPLES),
                "--seed", str(inputs.mc_seed),
                "-o", self.output_path(jobs)])
        for _lab, proc, _m, bn, kd in inputs.points:
            params = make_params(NU, bn / NU, self.model.vhat0)
            fn = (damping.gamma_beliaev_quadrature if proc == "beliaev"
                  else damping.gamma_landau_quadrature)
            try:
                rec.call(proc, "quadrature", fn, params, self.model,
                         kd * math.sqrt(NU))
            except Exception:
                # recorded on the operation; the gate counts it as failed
                pass
        return 0

    def attach_outputs(self, ops, jobs, inputs):
        """Join a pass's CLI output onto its operations.

        Returns a list of problems: CLI cells that disagree with the value
        the library returned, or operations missing from either side.
        Closed-form references come from the sweep's asymptotic rows, and
        oracle z scores from the oracle rows.
        """
        if not self.via_cli:
            return []
        rows = _csv_rows(self.output_path(jobs))
        problems = []
        by_key = {(op.process, op.method, op.beta_nu, op.k): op for op in ops}
        if self.name == "mc_oracle":
            for row in rows:
                for method, col, ecol in (("mc", "mc", "mc_stderr"),
                                          ("quadrature", "quadrature",
                                           "quadrature_err")):
                    op = by_key.get((row["process"], method,
                                     ORACLE_BETA_NU, inputs.ks[0]))
                    if op is None:
                        problems.append(f"no operation for oracle row {row}")
                        continue
                    _check_cell(op, row[col], problems)
                    if method == "mc" and row["z"] != "error":
                        op.z = float(row["z"])
            return problems
        refs = {}
        for row in rows:
            if row["method"] == "asymptotic":
                key = (float(row["beta_nu"]), float(row["k_over_sqrt_nu"]))
                refs[key] = row
        for row in rows:
            if row["method"] == "asymptotic":
                continue
            bn, kd = float(row["beta_nu"]), float(row["k_over_sqrt_nu"])
            for proc, col in (("beliaev", "gamma_B"), ("landau", "gamma_L")):
                op = by_key.get((proc, "quadrature", bn, kd))
                if op is None:
                    problems.append(f"no operation for {proc} row at "
                                    f"beta*nu={bn!r}, k={kd!r}")
                    continue
                _check_cell(op, row[col], problems)
                ref = refs.get((bn, kd), {}).get(col, "error")
                if ref != "error":
                    op.ref = float(ref)
        return problems

    def closed_forms(self, ops):
        """Closed-form references of library-run operations, outside timing."""
        if self.via_cli:
            return
        for op in ops:
            params = make_params(NU, op.beta_nu / NU, self.model.vhat0)
            fn = (damping.gamma_beliaev_asymptotic if op.process == "beliaev"
                  else damping.gamma_landau_asymptotic)
            op.ref = fn(params, self.model, op.k * math.sqrt(NU), "full")


def _check_cell(op, cell, problems):
    if cell == "error":
        if op.error is None:
            op.error = "CLI printed an error cell"
    elif op.value is None or float(cell) != op.value:
        problems.append(f"{op.label}: CLI printed {cell}, library returned "
                        f"{op.value!r}")
