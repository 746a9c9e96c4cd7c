"""The package runs on numpy alone: no code path loads scipy.

The check runs in a fresh interpreter, so modules the test suite itself
imports (scipy serves as a reference in other tests) do not count, and a
lazy import inside a command would show up after the command ran.
"""
import json
import os
import subprocess
import sys

import bogodamp

DATA = os.path.join(os.path.dirname(__file__), "data")

SCRIPT = """
import contextlib, io, json, sys
from bogodamp.cli import main

runs = [
    ["sweep", "--v", "0.1", "--k", "0.05,0.2", "--beta-nu", "50",
     "--methods", "quadrature,asymptotic", "--jobs", "2"],
    ["oracle", "--k", "0.3", "--beta-nu", "10", "--samples", "100000"],
    ["rate", "--potential", "tabulated", "--table", sys.argv[1],
     "--skip-validation", "--k", "0.4", "--beta-nu", "4"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_sweep_oracle_and_tabulated_rate_load_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bogodamp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(DATA, "dip_profile.dat")],
        env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # the tabulated Landau rate does not converge: an error row, exit 3
    assert out["codes"] == [0, 0, 3]
    assert out["scipy"] == []
