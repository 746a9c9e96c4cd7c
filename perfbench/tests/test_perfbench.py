"""Self-tests of the benchmark: counters, spans, generator, gate, wrappers.

    python3 -m pytest perfbench/tests -q
"""
import math
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import bogodamp  # noqa: E402
import bogodamp.cli as cli  # noqa: E402
from bogodamp import (GaussianPotential, QuadratureSpec,  # noqa: E402
                      gamma_beliaev_quadrature, gamma_landau_quadrature,
                      make_params)

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def gaussian(beta_nu):
    model = GaussianPotential(v=0.1, nu=1.0)
    return make_params(1.0, beta_nu, model.vhat0), model


def traced_rate(tracer, process, beta_nu, k):
    params, model = gaussian(beta_nu)
    import bogodamp.damping as damping
    with tracer:
        # looked up inside the block, so the traced wrapper is the one called
        fn = (damping.gamma_beliaev_quadrature if process == "beliaev"
              else damping.gamma_landau_quadrature)
        root = tracer.enter("bench.pass")
        res = fn(params, model, k)
        tracer.exit(root)
    return res


@pytest.mark.parametrize("process, evals", [("beliaev", 21), ("landau", 147)])
def test_integrand_counter_at_cheap_point(process, evals):
    tr = spans.Tracer()
    traced_rate(tr, process, 50.0, 1e-3)
    assert tr.totals("damping.integrand")[0] == evals
    assert tr.totals("numerics.quad")[0] == 1


def test_self_times_nonnegative_and_sum_to_root():
    tr = spans.Tracer()
    traced_rate(tr, "landau", 50.0, 0.05)
    root_total = tr.totals("bench.pass")[1]
    selfs = [s for (_c, _t, s) in tr.agg.values()]
    assert all(s >= -1e-12 for s in selfs)
    assert sum(selfs) == pytest.approx(root_total, rel=1e-9)
    assert len(tr.agg) > 5
    assert tr.totals("damping.rate")[0] == 1


def test_cross_thread_children_hang_under_cli_main(tmp_path):
    tr = spans.Tracer()
    with tr:
        root = tr.enter("bench.pass")
        rc = cli.main(["sweep", "--v", "0.1", "--k", "1e-3,0.05",
                       "--beta-nu", "50", "--jobs", "2",
                       "-o", str(tmp_path / "out.csv")])
        tr.exit(root)
    assert rc == 0
    calls, total, self_s = tr.totals("cli.main")
    assert calls == 1 and 0.0 <= self_s <= total
    parents = {p for (n, p) in tr.agg if n == "damping.rate"}
    assert parents == {"cli.main"}


def test_union_length():
    assert spans._union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert spans._union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    a = workloads.make_inputs(name, 7, 3)
    assert a == workloads.make_inputs(name, 7, 3)
    if name in ("readme_sweep", "mc_oracle"):
        assert a != workloads.make_inputs(name, 8, 3)
        assert a != workloads.make_inputs(name, 7, 4)
    assert workloads.make_inputs(name, 0, 0) == workloads.make_inputs(name, 0, 5)
    assert len({p[0] for p in a.points}) == len(a.points)


def test_seed_zero_runs_the_documented_points():
    assert workloads.make_inputs("readme_sweep", 0).ks == tuple(
        float(k) for k in cli._parse_values("log:1e-3:0.2:9", "k"))
    assert workloads.make_inputs("generic_scan", 0).ks == (0.2, 0.4, 0.6)
    assert workloads.make_inputs("mc_oracle", 0).ks == (0.3,)


def test_jitter_stays_in_its_cell():
    for seed in range(20):
        ks = workloads.make_inputs("readme_sweep", seed, seed % 3).ks
        grid = [1e-3 * (200.0 ** (1.0 / 8.0)) ** i for i in range(9)]
        half = 200.0 ** (1.0 / 16.0)
        assert all(g / half <= k <= g * half for g, k in zip(grid, ks))
        k = workloads.make_inputs("mc_oracle", seed).ks[0]
        assert 0.9 * 0.3 <= k <= 1.1 * 0.3


def op_of(process, beta_nu, k, quad=None):
    params, model = gaussian(beta_nu)
    fn = (gamma_beliaev_quadrature if process == "beliaev"
          else gamma_landau_quadrature)
    res = fn(params, model, k, quad)
    return workloads.Op("x", process, "quadrature", k, beta_nu,
                        value=res.value, abs_error=res.abs_error,
                        converged=res.converged,
                        support=bool(res.support.segments))


def kinds(op):
    return {kind for kind, _detail in gate.failure_reasons(op)}


def test_gate_flags_silent_zero_landau_point():
    op = op_of("landau", 1e6, 1.0)
    assert op.value == 0.0
    assert kinds(op) == {gate.SILENT_ZERO}
    op.label = "L_bn1e6_k1"
    assert gate.evaluate("hard_points", [op])[0]
    assert not gate.evaluate("readme_sweep", [op])[0]


def test_known_point_failing_another_way_is_unexpected():
    op = op_of("landau", 1e6, 1.0)
    op.label = "L_bn1e6_k1"
    op.value = math.nan
    assert gate.evaluate("hard_points", [op]) == (
        False, {"L_bn1e6_k1": [(gate.NOT_FINITE, "value not finite: nan")]},
        ["L_bn1e6_k1"])
    op.value, op.error = 0.0, "RuntimeError: x"
    assert not gate.evaluate("hard_points", [op])[0]


def generic_op(label, **kw):
    process = "beliaev" if label[0] == "B" else "landau"
    fields = dict(value=1e-3, abs_error=1e-14, converged=True, support=True)
    fields.update(kw)
    return workloads.Op(label, process, "quadrature", float(label[3:]), 4.0,
                        **fields)


def test_generic_scan_gate_keeps_the_converging_point():
    labels = [lab for lab, *_ in workloads.make_inputs("generic_scan", 0).points]
    known = gate.KNOWN_FAILURES["generic_scan"]
    ops = [generic_op(lab, converged=lab not in known,
                      abs_error=1e-10 if lab in known else 1e-14)
           for lab in labels]
    correct, failed, unexpected = gate.evaluate("generic_scan", ops)
    assert correct and len(failed) == 5 and unexpected == []
    # B_k0.2 converges at the seed: it failing is a new failure
    ops[labels.index("B_k0.2")].converged = False
    correct, failed, unexpected = gate.evaluate("generic_scan", ops)
    assert not correct and unexpected == ["B_k0.2"]
    # a known non-converging point that raises is a new failure too
    ops[labels.index("B_k0.2")].converged = True
    ops[labels.index("L_k0.4")].error = "ValueError: x"
    assert gate.evaluate("generic_scan", ops)[2] == ["L_k0.4"]


def test_gate_catches_loosened_tolerance():
    assert gate.failure_reasons(op_of("landau", 50.0, 1e-3)) == []
    loose = op_of("landau", 50.0, 1e-3, QuadratureSpec(rel_tol=1e-6))
    assert gate.ABOVE_TARGET in kinds(loose)


def test_gate_closed_form_route():
    params, model = gaussian(200.0)
    op = op_of("beliaev", 200.0, 0.01)
    op.ref = bogodamp.gamma_beliaev_asymptotic(params, model, 0.01)
    assert gate.failure_reasons(op) == []
    op.ref *= 1.01
    assert kinds(op) == {gate.CLOSED_FORM}


def bindings():
    import bogodamp.potential as potential
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "bogodamp" or name.startswith("bogodamp."):
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(name, attr)] = val
    for cname in spans.PROFILE_CLASSES:
        cls = getattr(potential, cname)
        out[(cname, "vhat")] = cls.__dict__["vhat"]
    return out


def test_wrappers_restore_original_bindings(tmp_path):
    before = bindings()
    tr = spans.Tracer()
    wl = workloads.Workload("mc_oracle", 1, str(tmp_path))
    rec = workloads.Recorder(tr)
    tr.install()
    rec.patch_cli()
    changed = bindings()
    assert changed != before
    assert cli.gamma_landau_quadrature is not before[("bogodamp.cli",
                                                      "gamma_landau_quadrature")]
    rec.restore()
    tr.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_threads_keep_their_own_stacks():
    tr = spans.Tracer()
    root = tr.enter("bench.pass")
    barrier = threading.Barrier(2)

    def work():
        fr = tr.enter("worker")
        barrier.wait(timeout=10)
        time.sleep(0.01)
        tr.exit(fr)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tr.exit(root)
    calls, total, _s = tr.totals("worker")
    assert calls == 2
    _c, root_total, root_self = tr.totals("bench.pass")
    # the two workers overlap, so the root's cover is their union
    assert 0.0 <= root_self < root_total
    assert root_total - root_self < total
    assert math.isfinite(root_self)
