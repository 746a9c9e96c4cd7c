"""The bogodamp benchmark: one workload, timed, gated, with all metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the bogodamp sources under
`src/`.  With `--trace 0` it measures the end-to-end metrics with tracing
off; with `--trace 1` it measures the body untraced for half the time and
traced for the other half, and reports per-layer metrics and the tracing
overhead.  `hard_points` runs by hand only: BENCHMARK.json does not list
it (see perfbench/README.md).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 8
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_sweep.csv")
GOLDEN_ARGS = ["sweep", "--v", "0.1", "--k", "1e-3,0.05", "--beta-nu",
               "50,2000", "--methods", "quadrature,asymptotic",
               "--rates", "beliaev,landau,total"]
HARD_METRICS = {
    "B_bn50_k1e-8": "hard.B_bn50_k1e-8_s",
    "B_bn1e4_k1e-6": "hard.B_bn1e4_k1e-6_s",
    "L_bn1e6_k0.05": "hard.L_bn1e6_k0.05_s",
    "L_bn1e5_k2": "hard.L_bn1e5_k2_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("readme_sweep", "hard_points", "generic_scan",
                            "mc_oracle"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probes(workload, profile, n):
    """Set-up times of `n` fresh processes, one after another."""
    env = dict(os.environ, PYTHONPATH=SRC)
    vals = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             profile], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=True)
        vals.append(float(out.stdout.strip().splitlines()[-1]))
    return vals


class Pass(NamedTuple):
    inputs: object
    jobs: int
    wall: float
    cpu: float             # CPU time of the process, all threads
    ops: list
    problems: list


def measure(wl, seconds, variants, tracer=None, between=None):
    """Run rounds of the body for at most `seconds`, but at least one.

    Round r runs every variant on the inputs of draw r, then calls
    `between(elapsed)` if given; its time counts as part of the round.  A
    round starts only if one more round as long as the last still ends in
    time.
    """
    from workloads import Recorder
    rec = Recorder(tracer)
    if tracer is not None:
        tracer.install()
    if wl.via_cli:
        rec.patch_cli()
    passes = []
    try:
        start = time.perf_counter()
        for draw in itertools.count():
            t_round = time.perf_counter()
            inputs = wl.inputs(draw)
            rec.use(inputs)
            for jobs in variants:
                rec.ops = []
                root = tracer.enter("bench.pass") if tracer is not None else None
                t0, c0 = time.perf_counter(), time.process_time()
                rc = wl.run_pass(rec, jobs, inputs)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if root is not None:
                    tracer.exit(root)
                problems = [] if rc in (0, 3) else [f"exit code {rc}"]
                passes.append(Pass(inputs, jobs, wall, cpu, rec.ops,
                                   problems))
            if between is not None:
                between(time.perf_counter() - start)
            now = time.perf_counter()
            if 2.0 * now - start - t_round > seconds:
                break
    finally:
        rec.restore()
        if tracer is not None:
            tracer.restore()
    return passes


def gate_passes(wl, passes):
    """Gate the last pass; passes on the same inputs must agree exactly."""
    import gate
    problems = []
    last = passes[-1]
    for p in passes:
        problems += p.problems
    problems += wl.attach_outputs(last.ops, last.jobs, last.inputs)
    expected = sorted(lab for lab, *_ in last.inputs.points)
    if sorted(op.label for op in last.ops) != expected:
        problems.append("operations differ from the workload's points")
    seen = {}
    for p in passes:
        vals = sorted(((op.label, op.value, op.abs_error) for op in p.ops),
                      key=str)
        if seen.setdefault(p.inputs, vals) != vals:
            problems.append(f"pass with --jobs {p.jobs} returned other values")
            break
    ran = {p.jobs for p in passes}
    if wl.via_cli and len(ran) > 1:
        texts = set()
        for jobs in sorted(ran):
            with open(wl.output_path(jobs), "rb") as fh:
                texts.add(fh.read())
        if len(texts) != 1:
            problems.append("CSV output depends on --jobs")
    wl.closed_forms(last.ops)
    correct, failed, unexpected = gate.evaluate(wl.name, last.ops, problems)
    return correct, failed, unexpected, problems, last.ops


def golden_matches(out_dir):
    """Whether tests/data/golden_sweep.csv regenerates byte for byte."""
    import bogodamp.cli as cli
    if not os.path.isfile(GOLDEN):
        return None
    path = os.path.join(out_dir, "golden_sweep.csv")
    cli.main(GOLDEN_ARGS + ["-o", path])
    with open(path, "rb") as a, open(GOLDEN, "rb") as b:
        return a.read() == b.read()


def median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def end_to_end(wl, passes, setup_s):
    from workloads import ORACLE_SAMPLES
    primary = [p for p in passes if p.jobs == wl.variants[0]]
    single = [p for p in passes if p.jobs == 1]
    attempted = len(passes[-1].inputs.points)
    wall = median_of(primary, lambda p: p.wall)
    m = {
        "setup_s": (setup_s, "s"),
        "cpu_s": (median_of(primary, lambda p: p.cpu), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    extra = {
        "wall_s": (wall, "s"),
        "rates_per_s": (attempted / wall, "1/s"),
        "rate_max_s": (median_of(single, lambda p: max(op.seconds
                                                    for op in p.ops)), "s"),
    }
    if wl.name == "readme_sweep":
        extra["wall_1t_s"] = (median_of(single, lambda p: p.wall), "s")
    if wl.name == "hard_points":
        for label, name in HARD_METRICS.items():
            extra[name] = (median_of(primary, lambda p: next(
                op.seconds for op in p.ops if op.label == label)), "s")
    if wl.name == "mc_oracle":
        extra["mc_samples_per_s"] = (median_of(primary, lambda p: sum(
            ORACLE_SAMPLES for op in p.ops if op.method == "mc") / sum(
            op.seconds for op in p.ops if op.method == "mc")), "1/s")
    return m, extra


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bogodamp", "__init__.py")):
        print(f"error: no bogodamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    import spans
    import workloads
    wl = workloads.Workload(args.workload, args.seed, OUT_DIR)

    if args.trace:
        half = 0.5 * args.seconds
        variants = wl.variants[:1]
        untraced = measure(wl, half, variants)
        tracer = spans.Tracer()
        passes = measure(wl, half, variants, tracer)
        tracer.dump(os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
        metrics = spans.layer_metrics(tracer, len(passes))
        w_tr = median_of(passes, lambda p: p.wall)
        w_un = median_of(untraced, lambda p: p.wall)
        metrics["trace.wall_s"] = {"value": w_tr, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": w_un, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": w_tr - w_un, "unit": "s"}
        passes = untraced + passes
        table = {k: (v["value"], v["unit"]) for k, v in metrics.items()}
    else:
        # probe i is due at i/SETUP_PROBES of the budget and runs in the
        # first gap between rounds after that, so the probes sample the
        # host across the whole run; the ones still due run at the end
        probes = setup_probes(args.workload, wl.profile, 1)

        def due_probes(elapsed):
            due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed
                                            / args.seconds))
            probes.extend(setup_probes(args.workload, wl.profile,
                                       due - len(probes)))

        passes = measure(wl, args.seconds, wl.variants, between=due_probes)
        probes += setup_probes(args.workload, wl.profile,
                               SETUP_PROBES - len(probes))
        e2e, extra = end_to_end(wl, passes, statistics.median(probes))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        table = dict(e2e, **extra)

    correct, failed, unexpected, problems, ops = gate_passes(wl, passes)
    attempted = len(passes[-1].inputs.points)
    table["fail_share"] = (len(failed) / attempted, "ratio")

    counts = {j: sum(p.jobs == j for p in passes) for j in wl.variants}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes by --jobs {counts}")
    for name, (value, unit) in table.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  failed {len(failed)} of {attempted} operations")
    for label, reasons in failed.items():
        tag = "UNEXPECTED" if label in unexpected else "known"
        print(f"    [{tag}] {label}: {'; '.join(d for _k, d in reasons)}")
    for prob in problems:
        print(f"  problem: {prob}")
    if args.workload == "readme_sweep":
        same = golden_matches(OUT_DIR)
        print(f"  tests/data/golden_sweep.csv regenerates byte for byte: "
              f"{'unknown' if same is None else same}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
