"""The benchmark keeps the contract ``BENCHMARK.json`` states (tier-1, < 10 s)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from bench import compare
from bench.workloads import NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_within_the_limits(benchmark_json):
    b = benchmark_json
    assert set(b) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(b["workloads"]) <= 8
    assert 1 <= len(b["end_to_end"]) <= 16
    assert 1 <= len(b["per_layer"]) <= 128
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert tuple(w["name"] for w in b["workloads"]) == NAMES
    for workload in b["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    metrics = b["end_to_end"] + b["per_layer"]
    names = [m["name"] for m in metrics] + list(NAMES)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in b["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in b["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def _smoke(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "paper1", "--smoke",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line


def test_a_smoke_run_produces_every_named_metric(benchmark_json, tmp_path):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        line = _smoke(trace)
        want = {m["name"]: m["unit"] for m in benchmark_json[group]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == want
        if trace == 0:
            assert all(m["value"] > 0 for m in line["metrics"].values())
            results = tmp_path / "set.json"
            results.write_text(json.dumps({"runs": [dict(line, workload="paper1")]}))
    # a set of runs compared with itself is all ok
    runs = compare.load_runs(str(results))
    for metric in benchmark_json["end_to_end"]:
        values = runs[("paper1", metric["name"])]
        word, worse_by = compare.verdict(
            values, values, metric["better"], metric["bound"]
        )
        assert (word, worse_by) == ("ok", 0.0)
