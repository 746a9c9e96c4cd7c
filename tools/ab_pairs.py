"""Alternating parent/change runs of the benchmark, summed up in one file.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each pair
runs `python3 perfbench/run.py --workload W --seed 0 --seconds S --trace
0` once in each checkout, from its root and in a fresh process, one after
the other: the parent goes first in even pairs, the change in odd ones.
The end-to-end metrics are the ones CHANGE_DIR's BENCHMARK.json lists,
read from the JSON object on the last line of each run's output.

Writes BENCH_<W>.json in the current directory: per metric and side the per-pair values,
their median and quartiles, the pairs each side won (a tie counts for
neither), the change of the medians in percent of the parent's, and the
parent's interquartile range.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=36.0)
    return p.parse_args(argv)


def run_once(root, args):
    """The JSON summary of one benchmark run in the checkout at root."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", "0",
           "--seconds", repr(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {root} with exit "
                         f"{out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(name, unit, better, runs):
    """One metric's summary over the pairs of runs."""
    sides = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in SIDES}
    sign = 1.0 if better == "lower" else -1.0
    gain = [sign * (p - c) for p, c in zip(sides["parent"], sides["change"])]
    out = {"unit": unit, "better": better}
    out.update({s: summary(v) for s, v in sides.items()})
    par = out["parent"]
    out["change_wins"] = sum(g > 0 for g in gain)
    out["parent_wins"] = sum(g < 0 for g in gain)
    out["median_change_pct"] = (100.0 * (out["change"]["median"]
                                         - par["median"]) / par["median"])
    out["parent_iqr"] = par["q3"] - par["q1"]
    return out


def main(argv=None):
    args = parse_args(argv)
    if args.pairs < 2:
        raise SystemExit("--pairs must be at least 2 for quartiles")
    dirs = dict(zip(SIDES, (args.parent_dir, args.change_dir)))
    with open(os.path.join(args.change_dir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], args)
            shown = {m["name"]: round(pair[side]["metrics"][m["name"]]
                                      ["value"], 4) for m in metrics}
            print(f"pair {i} {side}: {shown}", file=sys.stderr, flush=True)
        runs.append(pair)
    result = {
        "workload": args.workload,
        "command": f"perfbench/run.py --workload {args.workload} --seed 0 "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "metrics": {m["name"]: compare(m["name"], m["unit"], m["better"],
                                       runs) for m in metrics},
        "gates": [{s: {key: r[s][key] for key in ("correct", "attempted",
                                                  "failed")}
                   for s in SIDES} for r in runs],
    }
    path = f"BENCH_{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, m in result["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g} change "
              f"{m['change']['median']:.4g} {m['unit']} "
              f"({m['median_change_pct']:+.1f} %), change wins "
              f"{m['change_wins']} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
