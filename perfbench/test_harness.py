"""Self-tests of the benchmark harness, at smoke size.

    python3 -m pytest perfbench/test_harness.py

Smoke sizes exist only for these tests; their numbers are not results.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER, UNITS, WORKLOADS
from spans import self_times

HERE = Path(__file__).resolve().parent


def _bench(cwd: Path, *extra):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--seed", "5", "--seconds", "1", *extra],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    out = _bench(HERE.parent, "--workload", workload, "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(PER_LAYER if trace else END_TO_END)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    assert list(UNITS) == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_missing_source_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "sine_reference", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_times_partition_the_window():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0]]
    assert self_times(spans, (0.0, 10.0)) == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0}
    clipped = self_times(spans, (3.5, 6.0))
    assert sum(clipped.values()) == pytest.approx(2.5)
    assert clipped["c"] == 0.0
