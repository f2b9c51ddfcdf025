"""Self-test of the benchmark harness: a one-op-per-workload smoke pass and
negative controls for the oracle.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# index of a cheap op in each workload's list
CHEAP_OP = {"builtins-numeric": 3, "points-p2": 0, "module-p2": 0,
            "genericity-fp": 0}


@pytest.fixture(autouse=True)
def in_root(tmp_path, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))


def one_op(workload, seed=1):
    return [workloads.make_ops(workload, seed)[CHEAP_OP[workload]]]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_unit(workload):
    bench = run.load_benchmark()
    record = run.run(workload, 1, 0.01, 1, ops=one_op(workload))
    assert record["fail_frac"] == 0, record["failures"]
    lines = run.report_lines(record, bench)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert any(line.split()[:1] == [m["name"]] and
                   line.endswith(" " + m["unit"]) for line in lines), m
    assert record["top_span_checks"]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = json.loads(run.result_line(dict(record, trace=trace), bench))
        assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
        assert out["correct"] is True and out["attempted"] >= 1
        assert out["metrics"] == {
            m["name"]: {"value": record["metrics"][m["name"]],
                        "unit": m["unit"]} for m in bench[key]}


def test_frozen_digest_passes_and_corrupted_digest_fails():
    ops = workloads.make_ops("builtins-numeric", run.DEFAULT_SEED)[:1]
    good = run.load_digests("builtins-numeric", run.DEFAULT_SEED)[:1]
    record = run.run("builtins-numeric", run.DEFAULT_SEED, 0.01, 0,
                     digests=good, ops=ops)
    assert record["fail_frac"] == 0
    record = run.run("builtins-numeric", run.DEFAULT_SEED, 0.01, 0,
                     digests=["0" * 64], ops=ops)
    assert record["fail_frac"] == 1.0
    assert "digest" in record["failures"][0][2]


def test_forced_exception_counts_as_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(run.syzkit.cli, "build_chain", broken)
    record = run.run("builtins-numeric", 1, 0.01, 0,
                     ops=one_op("builtins-numeric"))
    assert record["fail_frac"] == 1.0
    assert "RuntimeError: forced" in record["failures"][0][2]


def test_timeout_is_recorded(monkeypatch):
    monkeypatch.setattr(run.syzkit.cli, "build_chain",
                        lambda *a, **k: time.sleep(5))
    rc, _, err, elapsed = run.call_op(one_op("builtins-numeric")[0]["argv"],
                                      0.2)
    assert rc is None and err.startswith("timeout") and elapsed < 2


def test_oracle_rejects_wrong_reports():
    op = workloads.make_ops("genericity-fp", 1)[-1]
    assert not op["positive"]
    good = {"r": op["r"], "n": op["n"], "v": op["v"], "trials": op["trials"],
            "failures": op["trials"], "hypothesis_met": False, "pass": False}
    assert workloads.check(op, 1, json.dumps(good))[0] is None
    assert workloads.check(op, 0, json.dumps(good))[0] is not None
    bad = dict(good, failures=op["trials"] - 1)
    assert workloads.check(op, 1, json.dumps(bad))[0] is not None


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [0.5, 1.5] * 5
    assert compare.verdict(parent, faster, 0.1)[0] == "improved"
    assert compare.verdict(parent, parent, 0.1)[0] == "no worse"
    assert compare.verdict(parent, slower, 0.1)[0] == "worse"
    assert compare.verdict(parent, noisy, 0.1)[0] == "unresolved"


def test_layer_map_names_every_per_layer_metric_once():
    with open(os.path.join(run.HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    mapped = [m for entry in layer_map["layers"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"]
                                    for m in run.load_benchmark()["per_layer"])
