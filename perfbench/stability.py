"""Run-to-run spread of the end-to-end metrics across workload seeds.

    python3 perfbench/stability.py --workloads readme_sweep,hard_points \
        --seeds 0-9 --out perfbench/results/stability.json

Runs perfbench/run.py with --trace 0 and BENCHMARK.json's run_seconds
once per (workload, seed), serially, and reports for each metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json.
Results for workloads already in --out are kept unless run again.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    """A --trace 0 run's JSON result, with the metrics its table prints."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    for line in lines[:-1]:
        m = re.fullmatch(r"  (\S+) +(\S+) (\S+)", line)
        if m and m.group(1) not in res["metrics"]:
            res["metrics"][m.group(1)] = {"value": float(m.group(2)),
                                          "unit": m.group(3)}
    return res


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    report = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res = run_once(wl, seed, seconds)
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in res["metrics"].items()}})
            print(f"{wl} seed {seed}: correct={res['correct']} failed="
                  f"{res['failed']}/{res['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {n: summarise([r["metrics"][n] for r in runs])
                   for n in names if n != "fail_share"}
        report[wl] = {"seconds": seconds,
                      "summary": summary, "runs": runs}
        print(f"{wl}: {len(runs)} runs of {seconds} s")
        for n, s in summary.items():
            b = bounds.get(n)
            flag = ""
            if b and n != "setup_s" and s["spread"] > b / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {n:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {b}"
                  f"{flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
