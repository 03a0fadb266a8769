"""Self-check of the benchmark at a tiny input size.

    python3 -m pytest perfbench -q

Every metric named in BENCHMARK.json is emitted, with its unit, on every
workload; the oracles pass; and they reject wrong answers.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import compare, hostspeed, oracles, workloads  # noqa: E402
from perfbench.inputs import Sizes, make_inputs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "perfbench" / "spec.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "0.2"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=[(w, t) for w in NAMES for t in (0, 1)],
                ids=lambda p: f"{p[0]}-trace{p[1]}")
def result(request):
    workload, trace = request.param
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return workload, trace, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_emitted_with_unit_and_oracles_pass(result):
    workload, trace, res = result
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_worker_pool_idle_on_lanes_only(result):
    workload, trace, res = result
    if not trace:
        pytest.skip("per-layer only")
    tasks = res["metrics"]["workers.tasks"]["value"]
    if workload == "warehouse_queries":
        if len(os.sched_getaffinity(0)) >= 2:
            assert tasks > 0
    else:
        assert tasks == 0


def test_spec_covers_benchmark():
    assert set(SPEC["workloads"]) == set(NAMES) == set(workloads.WORKLOADS)
    mapped = [m for layer in SPEC["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCH["per_layer"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = _run("reseq_lane", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_scales_by_the_readings_around_a_stretch(monkeypatch):
    readings = iter([2.0, 6.0, 4.0])
    monkeypatch.setattr(hostspeed, "reference_s", lambda: next(readings))
    host = hostspeed.HostSpeed()
    assert host.factor() == hostspeed.REFERENCE_S / 4.0
    assert host.factor() == hostspeed.REFERENCE_S / 5.0
    assert host.readings == [2.0, 6.0, 4.0]


@pytest.fixture(scope="module")
def tiny_inputs():
    return make_inputs("dge", Sizes(2, 10_000, 3, 300), seed=5)


def test_query1_oracle_rejects_wrong_ranking(tiny_inputs):
    check = oracles.query1_op(tiny_inputs, 1).check
    ranked = sorted(tiny_inputs.tag_counts.items(), key=lambda kv: -kv[1])
    rows = [(i, freq, seq) for i, (seq, freq) in enumerate(ranked, start=1)]
    assert check(rows)
    assert not check(rows[:-1])
    assert not check([(r, f + (r == 1), s) for r, f, s in rows])
    assert not check([(len(rows) + 1 - r, f, s) for r, f, s in rows])


def test_lookup_and_region_oracles_reject_wrong_rows(tiny_inputs):
    rng = random.Random(1)
    lookups = oracles.lookup_ops(tiny_inputs, rng, 21, ("read", "gene", "tag"))
    assert [op.sql.split()[3] for op in lookups[:3]] == ["[Read]", "Gene", "Tag"]
    for op in lookups:
        assert not op.check([])
    record = tiny_inputs.reads[0]
    row = oracles._read_row(1, record)
    assert row[-2:] == (record.sequence, record.quality)
    windows = oracles.AlignmentWindows()
    ops = oracles.region_ops(tiny_inputs, windows, rng, 10)
    with pytest.raises(RuntimeError):
        ops[0].check([(0,)])  # no expectation before the scan is loaded
    windows.load((1, 1, 1, i, i, None, 1 + i % 2, None, 125 * i, "+", 0, 30)
                 for i in range(160))
    for op in ops:
        accepted = [n for n in range(100) if op.check([(n,)])]
        assert len(accepted) == 1 and accepted[0] > 0


def test_consensus_oracle_counts_misses(tiny_inputs):
    ref = tiny_inputs.reference
    perfect = [(1, 1, 1, i, 0, r.sequence) for i, r in enumerate(ref, start=1)]
    assert oracles.consensus_match(tiny_inputs, perfect) == 1.0
    no_calls = [row[:5] + ("N" * len(row[5]),) for row in perfect]
    assert oracles.consensus_match(tiny_inputs, no_calls) == 0.0
    assert oracles.consensus_match(tiny_inputs, perfect[:1]) < 0.6


def test_compare_claim_rule():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, [p - 2 for p in parent], "lower", 0.1)[
        "status"] == "improved"
    assert compare.verdict(parent, [p + 3 for p in parent], "lower", 0.1)[
        "status"] == "regressed"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[
        "status"] == "within bound"
    noisy = [1.0, 5.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1)["status"] == "unresolved"
    assert compare.verdict(parent[:5], [p - 2 for p in parent[:5]], "lower",
                           0.1)["status"] != "improved"


def _records(path: Path, values, failed: int, gain: float = 0.0) -> None:
    """One reseq_lane result line per value: every end-to-end metric reads
    the value moved by ``gain`` in its better direction."""
    with open(path, "w") as handle:
        for value in values:
            metrics = {
                m["name"]: {
                    "value": value + (gain if m["better"] == "higher" else -gain),
                    "unit": m["unit"],
                }
                for m in BENCH["end_to_end"]
            }
            result = {"correct": failed == 0, "attempted": 100,
                      "failed": failed, "metrics": metrics}
            meta = {"workload": "reseq_lane", "trace": 0}
            handle.write(json.dumps({"meta": meta, "result": result}) + "\n")


def test_compare_refuses_gains_of_a_less_correct_change(tmp_path, capsys):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    base = [10.0 + 0.1 * i for i in range(10)]
    _records(parent, base, failed=0)
    # every metric is better, but one operation in each run fails
    _records(change, base, failed=1, gain=2.0)
    assert compare.report(str(parent), str(change)) == 1
    out = capsys.readouterr().out
    assert "error_rate 10/1000" in out and "refused" in out
    assert "improved" not in out
    _records(change, base, failed=0, gain=2.0)
    assert compare.report(str(parent), str(change)) == 0
    assert "improved" in capsys.readouterr().out
