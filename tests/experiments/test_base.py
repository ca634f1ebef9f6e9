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
    trace_sources_digest,
)
from repro.policies.lru import LRUPolicy
from repro.workloads.io import save_trace
from repro.workloads.suite import build_workload, workload_names


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

    def test_workloads_are_the_primary_set(self):
        setup = make_setup("mini")
        assert setup.workloads() == workload_names(primary_only=True)
        assert len(setup.workloads()) == 26


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
        assert policy.leaders.num_sets == 8

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


@pytest.fixture
def trace_dir(tmp_path, monkeypatch):
    """A trace-cache directory named by ``REPRO_TRACE_CACHE``."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    return tmp_path


class TestTraceDiskCache:
    def test_disabled_without_trace_dir(self, monkeypatch):
        # CI names a directory through REPRO_TRACE_CACHE; clear it so
        # this pins the no-configuration behavior.
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        cache = WorkloadCache(make_setup("mini", accesses=1000))
        assert cache.trace_path("lucas") is None

    def test_environment_names_the_directory(self, trace_dir):
        cache = WorkloadCache(make_setup("mini", accesses=1000))
        path = cache.trace_path("lucas")
        assert os.path.dirname(path) == str(trace_dir)
        assert os.path.basename(path) == (
            f"lucas-mini-1000-{trace_sources_digest()}.npz"
        )

    def test_builds_then_reloads(self, trace_dir):
        setup = make_setup("mini", accesses=1000)
        first = WorkloadCache(setup)
        trace = first.trace("lucas")
        path = first.trace_path("lucas")
        assert os.path.exists(path)

        second = WorkloadCache(setup)
        reloaded = second.trace("lucas")
        assert list(reloaded) == list(trace)
        assert second.trace_recoveries == []

    def test_stale_trace_under_an_old_name_is_not_read(self, trace_dir):
        """A file written before a recipe changed is keyed on the old
        sources, so it is never replayed: a valid trace of another
        workload under the name that held no digest is ignored."""
        setup = make_setup("mini", accesses=1000)
        stale = build_workload("art-1", setup.l2, accesses=setup.accesses)
        save_trace(stale, os.path.join(trace_dir, "lucas-mini-1000.npz"))
        fresh = build_workload("lucas", setup.l2, accesses=setup.accesses)
        cache = WorkloadCache(setup)
        assert cache.trace_dir == str(trace_dir)
        assert list(cache.trace("lucas")) == list(fresh)

    def test_corrupt_entry_regenerated_and_reported(self, trace_dir):
        setup = make_setup("mini", accesses=1000)
        first = WorkloadCache(setup)
        trace = first.trace("lucas")
        path = first.trace_path("lucas")
        # Truncate the cached file as a crashed writer would have.
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 3])

        second = WorkloadCache(setup)
        regenerated = second.trace("lucas")
        assert list(regenerated) == list(trace)
        assert len(second.trace_recoveries) == 1
        assert "lucas" in second.trace_recoveries[0]
        # The rewritten file is healthy again.
        third = WorkloadCache(setup)
        assert list(third.trace("lucas")) == list(trace)
        assert third.trace_recoveries == []


class TestExperimentResult:
    def test_rows_and_columns(self):
        result = ExperimentResult("x", "desc", headers=["name", "v"])
        result.add_row("a", 1.0)
        result.add_row("b", 2.0)
        assert result.column("v") == [1.0, 2.0]
        assert result.rows == [["a", 1.0], ["b", 2.0]]

    def test_render_includes_notes(self):
        result = ExperimentResult("x", "desc", headers=["a"])
        result.add_row(1)
        result.add_note("paper says hello")
        text = result.render()
        assert "x: desc" in text
        assert "paper says hello" in text
