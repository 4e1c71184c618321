"""Smoke tests: every workload runs at a tiny size and its checks pass.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import workloads  # noqa: E402

TINY_LASTFM = gen.LastfmShape(users=60, items=120, entities=300, relations=5,
                              triples=400, positives=600)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_checks_pass(name, trace, tmp_path):
    run = workloads.Run(seed=3, seconds=0.01, trace=trace, work_dir=tmp_path,
                        lastfm=TINY_LASTFM)
    end_to_end = workloads.WORKLOADS[name](run)
    assert run.failures == []
    assert run.attempted > 0
    if trace:
        metrics = workloads.layer_metrics(run)
        assert set(metrics) >= {"model.forward_ms", "graph.distinct_slot_ratio", "trace.overhead_pct"}
        assert metrics["model.forward_ms"][0] > 0
    else:
        assert set(end_to_end) == set(workloads.END_TO_END_UNITS) - {"peak_rss_mb"}
        assert all(value > 0 for value in end_to_end.values())


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    run = workloads.Run(seed=0, seconds=1, trace=True, work_dir=".")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {name: unit for name, (_, unit) in workloads.layer_metrics(run).items()}


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lastfm-rank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
