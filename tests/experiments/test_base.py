"""Unit tests for the shared experiment infrastructure."""

import os

import pytest

from repro.core.adaptive import AdaptivePolicy
from repro.core.sbar import SbarPolicy
from repro.cpu import timing
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    WorkloadCache,
    build_l2_policy,
    make_setup,
    policy_cells,
    run_cells,
    set_default_trace_dir,
)
from repro.policies.lru import LRUPolicy


class TestSetups:
    def test_scales(self):
        mini = make_setup("mini")
        scaled = make_setup("scaled")
        paper = make_setup("paper")
        assert mini.l2.size_bytes < scaled.l2.size_bytes < paper.l2.size_bytes
        assert paper.l2.size_bytes == 512 * 1024
        assert paper.processor.l1d.size_bytes == 16 * 1024
        assert mini.accesses < scaled.accesses < paper.accesses

    def test_accesses_override(self):
        setup = make_setup("mini", accesses=1234)
        assert setup.accesses == 1234

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            make_setup("galactic")

    def test_workload_lists(self):
        setup = make_setup("mini")
        assert len(setup.workloads(primary_only=True)) == 26
        assert len(setup.workloads(primary_only=False)) == 100


class TestBuildPolicy:
    def test_plain_policy(self, small_config):
        policy = build_l2_policy(small_config, "lru")
        assert isinstance(policy, LRUPolicy)

    def test_adaptive(self, small_config):
        policy = build_l2_policy(small_config, "adaptive", ("fifo", "mru"))
        assert isinstance(policy, AdaptivePolicy)
        assert [c.name for c in policy.components] == ["fifo", "mru"]

    def test_adaptive_partial_bits(self, small_config):
        policy = build_l2_policy(small_config, "adaptive", partial_bits=8)
        assert policy.tag_transform(0x1FF) == 0xFF

    def test_adaptive5(self, small_config):
        policy = build_l2_policy(small_config, "adaptive5")
        assert len(policy.components) == 5

    def test_sbar(self, small_config):
        policy = build_l2_policy(small_config, "sbar", num_leaders=8)
        assert isinstance(policy, SbarPolicy)
        assert len(policy.leader_sets) == 8

    def test_sbar_needs_two_components(self, small_config):
        with pytest.raises(ValueError):
            build_l2_policy(small_config, "sbar", ("lru", "lfu", "fifo"))

    def test_unknown_policy(self, small_config):
        with pytest.raises(ValueError):
            build_l2_policy(small_config, "clairvoyant")


class TestCells:
    def test_trace_keeps_nothing_in_memory(self):
        """Each call builds afresh: the cache holds no trace, and the
        build is deterministic."""
        setup = make_setup("mini", accesses=1000)
        cache = WorkloadCache(setup)
        first, second = cache.trace("lucas"), cache.trace("lucas")
        assert first is not second
        assert list(first) == list(second)

    def test_spellings_of_one_policy_are_one_cell(self):
        """Defaults are filled in and the label is not identity, so the
        baseline cells of different experiments compare equal."""
        setup = make_setup("mini", accesses=1000)
        short = Cell.of(setup, "lucas", "Adaptive", {"policy_kind": "adaptive"})
        spelled = Cell.of(
            setup, "lucas", "Adaptive (full tags)",
            {"policy_kind": "adaptive", "components": ["lru", "lfu"],
             "partial_bits": None},
            l2=setup.l2.scaled(ways=8),
            processor=setup.processor.scaled(store_buffer_entries=4),
        )
        assert short == spelled
        assert hash(short) == hash(spelled)
        assert short.coords != spelled.coords
        assert short != Cell.of(setup, "lucas", "Adaptive",
                                {"policy_kind": "adaptive", "partial_bits": 8})
        assert short != Cell.of(setup, "lucas", "Adaptive",
                                {"policy_kind": "adaptive"},
                                l2=setup.l2.scaled(ways=16))

    def test_run_cells_single_cell(self):
        setup = make_setup("mini", accesses=1500)
        cell = Cell.of(setup, "lucas", "LRU", {"policy_kind": "lru"})
        result = run_cells(setup, [cell])[cell.coords]
        assert result.instructions > 0
        assert result.cpi > 0

    def test_sweep(self):
        setup = make_setup("mini", accesses=1500)
        sweep = run_cells(setup, policy_cells(
            setup,
            ["lucas", "art-1"],
            {"LRU": {"policy_kind": "lru"}, "LFU": {"policy_kind": "lfu"}},
        ))
        assert list(sweep) == [("lucas", "LRU"), ("lucas", "LFU"),
                               ("art-1", "LRU"), ("art-1", "LFU")]

    def test_equal_cells_simulated_once(self, monkeypatch):
        """Two labels for one normalized cell share one simulation."""
        calls = []
        real = timing.simulate

        def counting(compiled, l2, config):
            calls.append(compiled.name)
            return real(compiled, l2, config)

        monkeypatch.setattr(timing, "simulate", counting)
        setup = make_setup("mini", accesses=1000)
        sweep = run_cells(setup, [
            Cell.of(setup, "lucas", "LRU", {"policy_kind": "lru"}),
            Cell.of(setup, "lucas", "LRU (8-way)", {"policy_kind": "lru"},
                    l2=setup.l2.scaled(ways=8)),
        ])
        assert calls == ["lucas"]
        assert sweep["lucas", "LRU"] == sweep["lucas", "LRU (8-way)"]


class TestTraceDiskCache:
    def test_disabled_without_trace_dir(self, monkeypatch):
        # Clear the process-wide default (CI seeds it via the
        # REPRO_TRACE_CACHE environment variable) so this pins the
        # no-configuration behavior.
        from repro.experiments import base as base_mod

        monkeypatch.setattr(base_mod, "_DEFAULT_TRACE_DIR", None)
        cache = WorkloadCache(make_setup("mini", accesses=1000))
        assert cache.trace_path("lucas") is None

    def test_builds_then_reloads(self, tmp_path):
        setup = make_setup("mini", accesses=1000)
        first = WorkloadCache(setup, trace_dir=tmp_path)
        trace = first.trace("lucas")
        path = first.trace_path("lucas")
        assert os.path.exists(path)

        second = WorkloadCache(setup, trace_dir=tmp_path)
        reloaded = second.trace("lucas")
        assert list(reloaded) == list(trace)
        assert second.trace_recoveries == []

    def test_corrupt_entry_regenerated_and_reported(self, tmp_path):
        setup = make_setup("mini", accesses=1000)
        first = WorkloadCache(setup, trace_dir=tmp_path)
        trace = first.trace("lucas")
        path = first.trace_path("lucas")
        # Truncate the cached file as a crashed writer would have.
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 3])

        second = WorkloadCache(setup, trace_dir=tmp_path)
        regenerated = second.trace("lucas")
        assert list(regenerated) == list(trace)
        assert len(second.trace_recoveries) == 1
        assert "lucas" in second.trace_recoveries[0]
        # The rewritten file is healthy again.
        third = WorkloadCache(setup, trace_dir=tmp_path)
        assert list(third.trace("lucas")) == list(trace)
        assert third.trace_recoveries == []

    def test_default_trace_dir_is_process_wide(self, tmp_path):
        set_default_trace_dir(tmp_path)
        try:
            cache = WorkloadCache(make_setup("mini", accesses=1000))
            assert cache.trace_path("lucas").startswith(str(tmp_path))
        finally:
            set_default_trace_dir(None)
        assert WorkloadCache(make_setup("mini")).trace_path("lucas") is None


class TestExperimentResult:
    def test_rows_and_columns(self):
        result = ExperimentResult("x", "desc", headers=["name", "v"])
        result.add_row("a", 1.0)
        result.add_row("b", 2.0)
        assert result.column("v") == [1.0, 2.0]
        assert result.row_by_label("b") == ["b", 2.0]
        with pytest.raises(KeyError):
            result.row_by_label("c")

    def test_render_includes_notes(self):
        result = ExperimentResult("x", "desc", headers=["a"])
        result.add_row(1)
        result.add_note("paper says hello")
        text = result.render()
        assert "x: desc" in text
        assert "paper says hello" in text
