"""Unit tests for the perf benchmark helpers and the regression gate.

Covers :mod:`repro.perf.bench` (stream determinism, hot-path and sweep
measurement plumbing, report round-trip) and the floor gate of
``benchmarks/bench_hotpath.py`` over report files, loaded by path since
``benchmarks`` is not a package.
"""

import importlib.util
import json
import pathlib

from repro.cache.config import CacheConfig
from repro.perf import bench
from repro.perf.bench import (
    bench_hotpath,
    bench_sweep,
    bench_wide_shard,
    render_perf,
    run_perf,
    synthetic_stream,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_gate():
    """Import benchmarks/bench_hotpath.py as a module, by file path."""
    path = REPO_ROOT / "benchmarks" / "bench_hotpath.py"
    spec = importlib.util.spec_from_file_location("bench_hotpath_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSyntheticStream:
    def test_deterministic_and_line_aligned(self):
        config = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)
        first = synthetic_stream(500, config)
        second = synthetic_stream(500, config)
        assert first == second
        assert len(first) == 500
        footprint = config.num_lines * 4 * config.line_bytes
        assert all(a % config.line_bytes == 0 for a in first)
        assert all(0 <= a < footprint for a in first)


class TestBenchHotpath:
    def test_reports_all_policies(self, monkeypatch):
        monkeypatch.setattr(bench, "HOTPATH_SIZE_KB", 4)
        monkeypatch.setattr(bench, "HOTPATH_WAYS", 4)
        rows = bench_hotpath(accesses=400)
        assert set(rows) == {"lru", "fifo", "adaptive"}
        for row in rows.values():
            assert row["access_per_sec"] > 0
            assert row["access_many_per_sec"] > 0
            assert 0.0 < row["miss_ratio"] < 1.0
            assert row["accesses"] == 400

    def test_miss_ratio_is_entry_point_invariant(self, monkeypatch):
        """The function itself asserts access/access_many agreement; a
        clean return is the canary passing."""
        monkeypatch.setattr(bench, "HOTPATH_POLICIES", ("lru",))
        monkeypatch.setattr(bench, "HOTPATH_SIZE_KB", 4)
        monkeypatch.setattr(bench, "HOTPATH_WAYS", 4)
        rows = bench_hotpath(accesses=300)
        assert set(rows) == {"lru"}


class TestBenchWideShard:
    def test_reports_rate_and_pinned_hit_ratio(self, monkeypatch):
        monkeypatch.setattr(bench, "WIDE_SHARD_WAYS", 64)
        row = bench_wide_shard(ops=400)
        assert row["get_or_compute_per_sec"] > 0
        assert 0.0 < row["hit_ratio"] < 1.0
        assert (row["ops"], row["ways"]) == (400, 64)
        assert bench_wide_shard(ops=400)["hit_ratio"] == row["hit_ratio"]


class TestBenchSweep:
    def test_serial_only_sweep(self, monkeypatch):
        monkeypatch.setattr(bench, "SWEEP_WORKLOADS", ("lucas",))
        report = bench_sweep(workers_counts=(1,), accesses=600)
        assert set(report["wall_clock_sec_by_workers"]) == {"1"}
        assert report["results_identical_across_workers"] is True
        assert report["workloads"] == ["lucas"]


class TestRunPerf:
    def test_writes_report_json(self, tmp_path, monkeypatch):
        import repro.perf.bench as bench_mod

        monkeypatch.setattr(bench_mod, "HOTPATH_ACCESSES", 3000)
        out = tmp_path / "perf.json"
        report = run_perf(path=str(out), quick=True, workers_counts=(1,))
        on_disk = json.loads(out.read_text())
        assert on_disk["quick"] is True
        assert on_disk["machine"]["cpu_count"] >= 1
        assert set(on_disk["hotpath"]) == {"lru", "fifo", "adaptive"}
        assert on_disk["wide_shard"]["ops"] == 300
        assert on_disk["wide_shard"]["get_or_compute_per_sec"] > 0
        rendered = render_perf(report)
        assert "hot path" in rendered
        assert "wide shard (512 ways, 300 ops)" in rendered
        assert "workers=1" in rendered
        assert list(tmp_path.iterdir()) == [out]


class TestRegressionGate:
    def test_floors_cleared(self):
        gate = load_gate()
        baselines = {"regression_margin": 0.1,
                     "floors": {"lru": {"access_per_sec": 100}}}
        measured = {"lru": {"access_per_sec": 95.0}}
        assert gate.check_against_baselines(measured, baselines) == []

    def test_regression_detected(self):
        gate = load_gate()
        baselines = {"regression_margin": 0.1,
                     "floors": {"lru": {"access_per_sec": 100}}}
        measured = {"lru": {"access_per_sec": 80.0}}
        violations = gate.check_against_baselines(measured, baselines)
        assert len(violations) == 1
        assert "lru.access_per_sec" in violations[0]

    def test_missing_policy_is_a_violation(self):
        gate = load_gate()
        baselines = {"floors": {"fifo": {"access_per_sec": 1}}}
        assert gate.check_against_baselines({}, baselines) == [
            "fifo: not measured"
        ]

    def test_missing_metric_is_a_violation(self):
        gate = load_gate()
        baselines = {"floors": {"lru": {"access_many_per_sec": 1}}}
        measured = {"lru": {"access_per_sec": 95.0}}
        assert gate.check_against_baselines(measured, baselines) == [
            "lru.access_many_per_sec: not measured"
        ]

    def test_pinned_baselines_file_is_wellformed(self):
        gate = load_gate()
        baselines = gate.load_baselines()
        assert 0.0 < baselines["regression_margin"] < 1.0
        floors = dict(baselines["floors"])
        wide = floors.pop("wide-shard")
        assert set(wide) == {"get_or_compute_per_sec"}
        assert wide["get_or_compute_per_sec"] > 0
        assert set(floors) == {"lru", "fifo", "adaptive"}
        for row in floors.values():
            assert set(row) == {"access_per_sec", "access_many_per_sec"}
            assert all(v > 0 for v in row.values())

    @staticmethod
    def write_report(path, baselines, scale=1.0):
        """A perf report whose every floored metric is ``scale`` times
        its pinned floor."""
        rows = {
            kind: {metric: floor * scale for metric, floor in floors.items()}
            for kind, floors in baselines["floors"].items()
        }
        wide = rows.pop("wide-shard")
        path.write_text(json.dumps({"hotpath": rows, "wide_shard": wide}))
        return str(path)

    def test_gate_measures_nothing(self):
        source = (REPO_ROOT / "benchmarks" / "bench_hotpath.py").read_text()
        assert "import repro" not in source
        assert "from repro" not in source

    def test_report_at_the_floors_passes(self, tmp_path, capsys):
        gate = load_gate()
        report = self.write_report(tmp_path / "perf.json",
                                   gate.load_baselines())
        assert gate.main([report]) == 0
        assert capsys.readouterr().err == ""

    def test_report_breaking_one_floor_fails(self, tmp_path, capsys):
        gate = load_gate()
        baselines = gate.load_baselines()
        report = self.write_report(tmp_path / "perf.json", baselines)
        payload = json.loads(pathlib.Path(report).read_text())
        payload["wide_shard"]["get_or_compute_per_sec"] = 1.0
        pathlib.Path(report).write_text(json.dumps(payload))
        assert gate.main([report]) == 1
        err = capsys.readouterr().err
        assert err.count("REGRESSION") == 1
        assert "wide-shard.get_or_compute_per_sec" in err

    def test_report_without_wide_shard_row_fails(self, tmp_path, capsys):
        gate = load_gate()
        report = self.write_report(tmp_path / "perf.json",
                                   gate.load_baselines())
        payload = json.loads(pathlib.Path(report).read_text())
        del payload["wide_shard"]
        pathlib.Path(report).write_text(json.dumps(payload))
        assert gate.main([report]) == 1
        assert "wide-shard: not measured" in capsys.readouterr().err

    def test_baselines_flag_overrides_floors(self, tmp_path):
        gate = load_gate()
        report = self.write_report(tmp_path / "perf.json",
                                   gate.load_baselines())
        hard = tmp_path / "floors.json"
        hard.write_text(json.dumps(
            {"regression_margin": 0.0,
             "floors": {"lru": {"access_per_sec": 10 ** 12}}}
        ))
        assert gate.main([report, "--baselines", str(hard)]) == 1

    def test_committed_report_has_every_gated_row(self):
        """BENCH_perf.json is a run_perf report: the gate finds every
        floored row in it (whether this machine clears the floors is
        CI's question, not the suite's)."""
        gate = load_gate()
        report = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
        measured = {**report["hotpath"], "wide-shard": report["wide_shard"]}
        violations = gate.check_against_baselines(
            measured, {**gate.load_baselines(), "regression_margin": 1.0}
        )
        assert violations == []
        assert "kernel_mode" not in report
        assert report["quick"] is False


class TestCliPerfVerb:
    def test_perf_verb_writes_report(self, tmp_path, capsys, monkeypatch):
        import repro.perf.bench as bench_mod
        from repro.experiments.cli import main

        monkeypatch.setattr(bench_mod, "HOTPATH_ACCESSES", 3000)
        out = tmp_path / "BENCH_perf.json"
        code = main(["perf", "--quick", "--perf-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["quick"] is True
        captured = capsys.readouterr().out
        assert "hot path" in captured
        assert str(out) in captured

    def test_workers_1_times_the_serial_sweep_alone(self, tmp_path,
                                                    monkeypatch):
        import repro.perf.bench as bench_mod
        from repro.experiments.cli import main

        monkeypatch.setattr(bench_mod, "HOTPATH_ACCESSES", 3000)
        out = tmp_path / "BENCH_perf.json"
        code = main(["perf", "--quick", "--workers", "1",
                     "--perf-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert list(report["sweep"]["wall_clock_sec_by_workers"]) == ["1"]
