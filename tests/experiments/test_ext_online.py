"""Tests for the ext-online experiment (the online KV engine sweep)."""

import pytest

from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import ext_online
from repro.experiments.base import make_setup
from tests.experiments.helpers import adaptive_vs_best_fixed, run_experiment


@pytest.fixture(scope="module")
def setup():
    return make_setup("mini", accesses=6000)


class TestRun:
    def test_full_grid_shape(self, setup):
        result = run_experiment(
            "ext-online", setup,
            WORKLOADS=("zipf", "loop"),
            ENGINES=("adaptive", "lru", "lru_cache"),
        )
        assert result.experiment == "ext-online"
        assert len(result.rows) == 2 * 3
        for row in result.rows:
            workload, engine, hits, misses, hit_pct, ops, switches = row
            assert workload in ("zipf", "loop")
            assert hits + misses == setup.accesses
            assert 0.0 <= hit_pct <= 100.0
            assert ops > 0
            assert switches >= 0
        # Fixed engines and lru_cache never switch policies.
        for row in result.rows:
            if row[1] in ("lru", "lru_cache"):
                assert row[6] == 0

    def test_notes_compare_adaptive_to_fixed(self, setup):
        result = run_experiment(
            "ext-online", setup,
            WORKLOADS=("zipf",),
            ENGINES=("adaptive", "lru", "lfu", "fifo"),
        )
        assert len(result.notes) == 1
        assert "adaptive" in result.notes[0]
        assert "best fixed" in result.notes[0]

    def test_lru_engine_matches_functools_lru_cache_closely(self, setup):
        # Same policy, different implementations: per-shard LRU vs the
        # stdlib's global LRU. Sharding splits the LRU stack, so allow a
        # few points of drift, but they must agree on the big picture.
        result = run_experiment("ext-online", setup, WORKLOADS=("zipf",),
                                ENGINES=("lru", "lru_cache"))
        by_engine = {row[1]: row[4] for row in result.rows}
        assert abs(by_engine["lru"] - by_engine["lru_cache"]) < 5.0

    def test_unknown_workload_rejected(self, setup):
        with pytest.raises(ValueError, match="unknown key-stream"):
            run_experiment("ext-online", setup, WORKLOADS=("nope",))


class TestAcceptance:
    def test_adaptive_matches_or_beats_best_fixed_on_phase_change(self):
        # The PR's acceptance condition, at the scale the CLI uses.
        result = run_experiment(
            "ext-online", make_setup("mini"),
            WORKLOADS=(ext_online.PHASE_WORKLOAD,),
            ENGINES=("adaptive", "lru", "lfu", "fifo"),
        )
        assert adaptive_vs_best_fixed(result) >= -0.5


class TestCheckpointing:
    def test_cells_cached_and_restored(self, setup, tmp_path, monkeypatch):
        ckpt = checkpoint_mod.SweepCheckpoint(tmp_path / "ck.json")
        constants = dict(WORKLOADS=("loop",), ENGINES=("lru", "lru_cache"))
        first = run_experiment("ext-online", setup, checkpoint=ckpt,
                               **constants)
        assert len(ckpt) == 2

        # A resumed run must come entirely from the checkpoint: make
        # recomputation an error and require identical rows.
        def boom(*args, **kw):
            raise AssertionError("cell recomputed despite checkpoint")

        monkeypatch.setattr(ext_online, "replay", boom)
        second = run_experiment("ext-online", setup, checkpoint=ckpt,
                                **constants)
        assert second.rows == first.rows
