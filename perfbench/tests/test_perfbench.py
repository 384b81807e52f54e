"""Self-tests of the benchmark at toy size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

TOY_PLOTS = 60
WORKLOADS = ("cli-report", "session-families", "wide-groups")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every metric the benchmark defines, with its unit, as printed.
PRINTED_END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PRINTED_END_TO_END.update({"op_tail_s": "s", "fail_ratio": "ratio"})
PRINTED_PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
PRINTED_PER_LAYER.update({"io.write_s": "s", "core.combine_s": "s",
                          "spatial.assign_s": "s", "spatial.emit_s": "s"})


def _bench(workload, trace, *extra, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(BENCH / "run.py") if cwd == ROOT else "perfbench/run.py",
           "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
           "--trace", str(trace), "--plots", str(TOY_PLOTS), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_same_bytes_and_other_seed_other_bytes(tmp_path):
    a = gen.generate(tmp_path / "a", 7, TOY_PLOTS)
    b = gen.generate(tmp_path / "b", 7, TOY_PLOTS)
    c = gen.generate(tmp_path / "c", 8, TOY_PLOTS)
    assert a == b
    assert a != c
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = _last_json(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    printed = PRINTED_PER_LAYER if trace else PRINTED_END_TO_END
    for name, unit in printed.items():
        assert any(
            line.startswith(f"{workload} {name} = ") and line.split()[4] == unit
            for line in proc.stdout.splitlines()
        ), f"{name} [{unit}] not printed"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_fit_in_their_op(workload):
    proc = _bench(workload, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    trace = json.loads((ROOT / ".perfbench_out" / f"trace-{workload}.json").read_text())
    wall = {op["op"]: op["seconds"] for op in trace["ops"]}
    per_op: dict = {}
    for doc in trace["processes"]:
        for item in doc["spans"] + doc["aggregates"]:
            assert item["self"] >= -1e-9, item
            per_op[item["op"]] = per_op.get(item["op"], 0.0) + item["self"]
    assert set(wall) <= set(per_op)
    for op, seconds in wall.items():
        assert per_op[op] <= seconds, (op, per_op[op], seconds)


def test_corrupted_reference_is_a_failed_op(tmp_path):
    refs = json.loads((BENCH / "refs.json").read_text())
    for per_workload in refs["states"][str(TOY_PLOTS)].values():
        fp = per_workload["session-families"]["dwm"]
        col = sorted(fp["sums"])[0]
        fp["sums"][col][0] *= 1.001
    bad = tmp_path / "refs.json"
    bad.write_text(json.dumps(refs))
    proc = _bench("session-families", 0, "--refs", str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    doc = _last_json(proc)
    assert doc["correct"] is False
    assert doc["failed"] >= 1 and doc["failed"] < doc["attempted"]
    assert "FAILED dwm" in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("session-families", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
