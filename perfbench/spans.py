"""Spans and counters recorded around bogodamp's layers from outside.

A Tracer installs wrappers over the package's public functions and over
every name under which another bogodamp module imported them (for example
`damping.invert_dispersion` and `cli.gamma_beliaev_quadrature`), and puts
the original objects back on `restore`.  Each wrapped call is a span with a
name, start, end, parent span and operation id.  Every thread keeps its own
span stack; the first span a worker thread opens takes the main thread's
innermost open span as its parent, which is how the `cli` thread pool's
work hangs under `cli.main`.

Self time is a span's duration minus the time its child spans cover.
Children from other threads may overlap each other, so their cover is the
length of the union of their intervals; the main thread waits while the
pool works, so those never overlap the span's same-thread children.

Calls that happen hundreds of thousands of times per rate (integrand
evaluations, dispersion inversions, profile evaluations, vertex_j) are
aggregated per (name, parent name) instead of being kept one by one; every
other span is kept in memory and written out by `dump`.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# spans aggregated per (name, parent) rather than kept individually
HOT = frozenset({"damping.integrand", "bogoliubov.invert", "potential.vhat",
                 "vertices.j"})

# span name -> (module, attribute) of the original public function; every
# other binding of the same object inside bogodamp is replaced as well
FUNCTIONS = (
    ("cli.main", "bogodamp.cli", "main"),
    ("damping.support", "bogodamp.damping", "detect_support"),
    ("damping.rate", "bogodamp.damping", "gamma_beliaev_quadrature"),
    ("damping.rate", "bogodamp.damping", "gamma_landau_quadrature"),
    ("damping.generic", "bogodamp.damping", "reduce_delta_generic"),
    ("damping.closed_form", "bogodamp.damping", "gamma_beliaev_asymptotic"),
    ("damping.closed_form", "bogodamp.damping", "gamma_landau_asymptotic"),
    ("damping.mc", "bogodamp.damping", "mc_oracle"),
    ("bogoliubov.invert", "bogodamp.bogoliubov", "invert_dispersion"),
    ("bogoliubov.branch_table", "bogodamp.bogoliubov", "branch_table"),
    ("bogoliubov.omega_bg", "bogodamp.bogoliubov", "omega_bg"),
    ("vertices.j", "bogodamp.vertices", "vertex_j"),
    ("vertices.j_arrays", "bogodamp.vertices", "_j_arrays"),
    ("specfun", "bogodamp.specfun", "beliaev_I"),
    ("specfun", "bogodamp.specfun", "landau_Gk"),
    ("potential.validate", "bogodamp.potential", "validate_assumptions"),
)
# counted without a span, so that a table build stays in branch_table's
# self time
COUNTED = (("bogoliubov.branch_table.builds", "bogodamp.bogoliubov",
            "detect_branches"),)
QUAD = ("numerics.quad", "bogodamp.numerics", "integrate_adaptive")
PROFILE_CLASSES = ("GaussianPotential", "FlatCutoffPotential",
                   "TabulatedPotential")


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Frame:
    __slots__ = ("name", "sid", "parent", "t0", "child", "cross")

    def __init__(self, name, sid, parent, t0):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.t0 = t0
        self.child = 0.0
        self.cross = None


class Tracer:
    """Span recorder; `install` patches bogodamp, `restore` undoes it."""

    def __init__(self):
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main = None          # span stack of the thread that traces
        self._patched = []         # (owner, attribute, original)
        self.agg = {}              # (name, parent name) -> [calls, total, self]
        self.spans = []            # (id, name, start, end, parent id, op id)
        self.counts = {}

    # -- operation ids ----------------------------------------------------
    def set_op(self, op_id):
        self._tls.op = op_id

    # -- spans --------------------------------------------------------------
    def _stack(self):
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
            if self._main is None:
                self._main = st
        return st

    def enter(self, name):
        st = self._stack()
        if st:
            parent = st[-1]
        elif st is not self._main and self._main:
            parent = self._main[-1]
        else:
            parent = None
        fr = _Frame(name, next(self._ids), parent, time.perf_counter())
        st.append(fr)
        return fr

    def exit(self, fr):
        t1 = time.perf_counter()
        st = self._tls.stack
        st.pop()
        dur = t1 - fr.t0
        covered = fr.child
        if fr.cross is not None:
            covered += _union_length(fr.cross)
        parent = fr.parent
        pname = parent.name if parent is not None else None
        key = (fr.name, pname)
        with self._lock:
            a = self.agg.get(key)
            if a is None:
                a = self.agg[key] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += dur
            a[2] += dur - covered
            if parent is not None and (not st or st[-1] is not parent):
                if parent.cross is None:
                    parent.cross = []
                parent.cross.append((fr.t0, t1))
            if fr.name not in HOT:
                self.spans.append((fr.sid, fr.name, fr.t0, t1,
                                   parent.sid if parent is not None else None,
                                   getattr(self._tls, "op", None)))
        if parent is not None and st and st[-1] is parent:
            parent.child += dur

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fr = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(fr)
        return traced

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return counted

    def _quad(self, fn):
        tracer = self

        @functools.wraps(fn)
        def quad(f, a, b, spec=None):
            fr = tracer.enter(QUAD[0])
            try:
                res = fn(tracer.wrap("damping.integrand", f), a, b, spec)
            finally:
                tracer.exit(fr)
            if not res.ok:
                tracer.count("numerics.quad.not_ok")
            return res
        return quad

    # -- installation -------------------------------------------------------
    def _replace_everywhere(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bogodamp"
                                   or modname.startswith("bogodamp.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self):
        import bogodamp.cli  # noqa: F401  (loads every module to patch)
        import bogodamp.potential as potential
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            self._replace_everywhere(orig, self.wrap(name, orig))
        for name, modname, attr in COUNTED:
            orig = getattr(sys.modules[modname], attr)
            self._replace_everywhere(orig, self._counted(name, orig))
        orig = getattr(sys.modules[QUAD[1]], QUAD[2])
        self._replace_everywhere(orig, self._quad(orig))
        for cname in PROFILE_CLASSES:
            cls = getattr(potential, cname)
            orig = cls.__dict__["vhat"]
            self._patched.append((cls, "vhat", orig))
            cls.vhat = self.wrap("potential.vhat", orig)
        return self

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- results ------------------------------------------------------------
    def totals(self, name):
        """(calls, total seconds, self seconds) of a span name, all parents."""
        c = t = s = 0
        for (n, _p), (ci, ti, si) in self.agg.items():
            if n == name:
                c += ci
                t += ti
                s += si
        return c, t, s

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "aggregated": [[n, p, c, t, s]
                               for (n, p), (c, t, s) in sorted(
                                   self.agg.items(), key=str)],
                "counts": self.counts,
            }, fh)


def layer_metrics(tr, passes):
    """Per-layer metrics per workload pass from a finished trace."""
    def tot(name):
        c, t, s = tr.totals(name)
        return c / passes, t / passes, s / passes

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("cli.self_s", tot("cli.main")[2], "s")
    c, _t, s = tot("damping.support")
    put("damping.support.calls", c, "count")
    put("damping.support.self_s", s, "s")
    inv_sup = tr.agg.get(("bogoliubov.invert", "damping.support"), [0])[0]
    put("damping.support.invert_calls", inv_sup / passes, "count")
    c, t, _s = tot("damping.integrand")
    put("damping.integrand.evals", c, "count")
    put("damping.integrand.us_per_eval", 1e6 * t / c if c else 0.0, "us")
    evals = c
    put("damping.generic.calls", tot("damping.generic")[0], "count")
    put("damping.rate.self_s", tot("damping.rate")[2], "s")
    put("damping.closed_form.self_s", tot("damping.closed_form")[2], "s")
    put("damping.mc.self_s", tot("damping.mc")[2], "s")
    c, _t, s = tot("numerics.quad")
    put("numerics.quad.calls", c, "count")
    put("numerics.quad.evals_per_call", evals / c if c else 0.0, "count")
    put("numerics.quad.not_ok", tr.counts.get("numerics.quad.not_ok", 0) / passes,
        "count")
    put("numerics.quad.self_s", s, "s")
    c, t, s = tot("bogoliubov.invert")
    put("bogoliubov.invert.calls", c, "count")
    put("bogoliubov.invert.self_s", s, "s")
    put("bogoliubov.invert.us_per_call", 1e6 * t / c if c else 0.0, "us")
    c, _t, s = tot("bogoliubov.branch_table")
    put("bogoliubov.branch_table.calls", c, "count")
    put("bogoliubov.branch_table.builds",
        tr.counts.get("bogoliubov.branch_table.builds", 0) / passes, "count")
    put("bogoliubov.branch_table.self_s", s, "s")
    put("bogoliubov.omega_bg.self_s", tot("bogoliubov.omega_bg")[2], "s")
    c, _t, s = tot("vertices.j")
    put("vertices.j.calls", c, "count")
    put("vertices.j.self_s", s, "s")
    put("vertices.j_arrays.self_s", tot("vertices.j_arrays")[2], "s")
    c, _t, s = tot("specfun")
    put("specfun.calls", c, "count")
    put("specfun.self_s", s, "s")
    c, _t, s = tot("potential.vhat")
    put("potential.vhat.calls", c, "count")
    put("potential.vhat.self_s", s, "s")
    put("potential.validate.self_s", tot("potential.validate")[2], "s")
    put("bench.self_s", tot("bench.pass")[2], "s")
    return out
