"""Toy-size runs of every workload, and BENCHMARK.json against run.py."""

import json

import pytest

import run
import workloads


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_toy_run_is_correct_and_reports_every_metric(name, tmp_path):
    result = run.run_child(name, 3, 0.4, True, str(tmp_path), size="toy")
    assert result["correct"], result["failure_reasons"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["correctness"] == "unpinned"
    assert set(result["end_to_end"]) == {metric for metric, _ in run.END_TO_END}
    assert all(value > 0 for value in result["end_to_end"].values())
    assert set(result["timings"]) == {metric for metric, _ in run.TIMINGS}
    assert all(value > 0 for value in result["timings"].values())
    assert set(result["per_layer"]) == {metric for metric, _ in run.per_layer_metrics()}
    assert result["per_layer"]["trace.coverage_pct"] > 0
    assert (tmp_path / f"{name}.spans.jsonl").exists()
    assert not list(tmp_path.glob("work-*"))
    line = run._metrics_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [entry["name"] for entry in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
