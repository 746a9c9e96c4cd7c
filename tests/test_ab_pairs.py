"""tools/ab_pairs.py: the claim rule it prints, the runs it refuses, and
the pass counts it records."""
import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "ab_pairs.py")
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _run(cpu, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"cpu_s": {"value": cpu}}}


def _pairs(parent, change):
    return [{"pair": i, "parent": _run(p), "change": _run(c)}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27, 0.28, 0.29]


@pytest.mark.parametrize("change, holds", [
    # wins 10 of 10, median gap 0.17 against a parent IQR of 0.045
    ([0.07] * 10, True),
    # wins 9 of 10
    ([0.07] * 9 + [0.30], True),
    # wins 8 of 10
    ([0.07] * 8 + [0.30] * 2, False),
    # wins every pair by 0.01, less than the parent's IQR
    ([p - 0.01 for p in PARENT], False),
])
def test_claim_rule(change, holds):
    m = ab_pairs.compare("cpu_s", "s", "lower", _pairs(PARENT, change))
    assert m["claim_holds"] is holds


def test_claim_rule_on_a_metric_where_higher_is_better():
    m = ab_pairs.compare("cpu_s", "1/s", "higher",
                         _pairs(PARENT, [1.0] * 10))
    assert m["claim_holds"]


@pytest.mark.parametrize("side, key, value", [
    (None, None, None),
    ("change", "correct", False), ("parent", "correct", False),
    ("change", "failed", 1)])
def test_a_bad_run_writes_no_file(tmp_path, monkeypatch, side, key, value):
    first = {"parent": _run(0.2), "change": _run(0.1)}
    if side is not None:
        first[side][key] = value
    # pair 0 runs the parent first, pair 1 the change
    calls = iter([first["parent"], first["change"], _run(0.1), _run(0.2)])
    monkeypatch.setattr(ab_pairs, "run_once", lambda root, args: next(calls))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "cpu_s", "unit": "s", "better": "lower"}]}')
    argv = ["parent", "change", "--workload", "w", "--pairs", "2"]
    if side is None:
        assert ab_pairs.main(argv) == 0
        assert (tmp_path / "BENCH_w.json").exists()
        return
    with pytest.raises(SystemExit) as err:
        ab_pairs.main(argv)
    assert err.value.code != 0
    assert not (tmp_path / "BENCH_w.json").exists()


@pytest.mark.parametrize("line, counts", [
    ("workload readme_sweep  seed 0  trace 0  passes by --jobs {2: 29, 1: 29}",
     {"2": 29, "1": 29}),
    ("workload generic_scan  seed 0  trace 0  passes by --jobs {1: 2}",
     {"1": 2}),
])
def test_pass_counts_read_the_header_line(line, counts):
    out = f"{line}\n  cpu_s   0.1 s\n" + '{"correct": true}\n'
    assert ab_pairs.pass_counts(out) == counts


def test_pass_counts_without_the_header_line():
    assert ab_pairs.pass_counts('{"correct": true}\n') is None


def test_pass_counts_are_written_per_side(tmp_path, monkeypatch):
    """BENCH_<W>.json keeps each run's pass counts, in pair order."""
    def run(cpu, passes):
        return dict(_run(cpu), passes={"1": passes})

    # pair 0 runs the parent first, pair 1 the change
    calls = iter([run(0.2, 10), run(0.1, 20), run(0.1, 21), run(0.2, 11)])
    monkeypatch.setattr(ab_pairs, "run_once", lambda root, args: next(calls))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "cpu_s", "unit": "s", "better": "lower"}]}')
    assert ab_pairs.main(["parent", "change", "--workload", "w",
                          "--pairs", "2"]) == 0
    written = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert written["passes"] == {"parent": [{"1": 10}, {"1": 11}],
                                 "change": [{"1": 20}, {"1": 21}]}
