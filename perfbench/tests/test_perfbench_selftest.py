"""Self-test of the benchmark at toy dims: every metric emitted, tracing inert.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench  # noqa: E402
from perfbench.workloads import WORKLOADS, tiny  # noqa: E402


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    w = tiny(WORKLOADS[request.param])
    tmp = tmp_path_factory.mktemp(w.name)
    plain = bench.run_workload(w, 7, 0, 0, tmp / "plain")
    traced = bench.run_workload(w, 7, 0, 1, tmp / "traced")
    return w, plain, traced


def _assert_metrics(result, names_units):
    assert set(result["metrics"]) == {name for name, _ in names_units}
    for name, unit in names_units:
        m = result["metrics"][name]
        assert m["unit"] == unit, name
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name


def test_end_to_end_metrics_emitted(runs):
    _, (result, record), _ = runs
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _assert_metrics(result, [(n, u) for n, u, _ in bench.END_TO_END])
    for name, _, _ in bench.END_TO_END:
        assert result["metrics"][name]["value"] > 0, name
    unbounded = record["end_to_end"]["unbounded"]
    assert {name: m["unit"] for name, m in unbounded.items()} == dict(bench.UNBOUNDED)
    assert record["fail_frac"] == 0.0


def test_per_layer_metrics_emitted(runs):
    w, _, (result, _) = runs
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, bench.PER_LAYER)
    metrics = result["metrics"]
    assert metrics["optim.update_ms.L0"]["value"] > 0
    assert metrics["net.forward_ms"]["value"] > 0
    assert (metrics["xbar.write_ms.L0"]["value"] > 0) == (w.mode == "crossbar")
    assert (metrics["device.program_ops"]["value"] > 0) == (w.mode == "crossbar")


def test_tracing_leaves_simulated_statistics_unchanged(runs):
    # within the traced run, traced and untraced episodes are compared by the
    # run's own checks; across runs the simulated record must match too
    w, (_, plain), (_, traced) = runs
    assert plain["simulated"] == traced["simulated"]
    assert plain["flip_frac_pct"] == traced["flip_frac_pct"]
    if w.mode == "crossbar":
        assert plain["simulated"]["program_ops"] > 0


def test_missing_trace_target_fails_the_run(tmp_path, monkeypatch):
    # a renamed layer entry point must not read as a 0 ms (100% faster) layer
    from memqnn import harness

    monkeypatch.delattr(harness, "ops_histogram")
    w = tiny(WORKLOADS["exact-desk"])
    result, record = bench.run_workload(w, 7, 0, 1, tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert "harness.ops_histogram" in record["first_failures"][0]


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in bench.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u, _ in bench.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
