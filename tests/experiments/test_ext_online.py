"""Tests for the ext-online experiment (the online KV engine sweep)."""

import pytest

from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import ext_online
from repro.experiments.base import make_setup


@pytest.fixture(scope="module")
def setup():
    return make_setup("mini", accesses=6000)


class TestRun:
    def test_full_grid_shape(self, setup):
        result = ext_online.run(
            setup=setup,
            workloads=("zipf", "loop"),
            engines=("adaptive", "lru", "lru_cache"),
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
        result = ext_online.run(
            setup=setup,
            workloads=("zipf",),
            engines=("adaptive", "lru", "lfu", "fifo"),
        )
        assert len(result.notes) == 1
        assert "adaptive" in result.notes[0]
        assert "best fixed" in result.notes[0]

    def test_lru_engine_matches_functools_lru_cache_closely(self, setup):
        # Same policy, different implementations: per-shard LRU vs the
        # stdlib's global LRU. Sharding splits the LRU stack, so allow a
        # few points of drift, but they must agree on the big picture.
        result = ext_online.run(
            setup=setup, workloads=("zipf",), engines=("lru", "lru_cache")
        )
        by_engine = {row[1]: row[4] for row in result.rows}
        assert abs(by_engine["lru"] - by_engine["lru_cache"]) < 5.0

    def test_unknown_workload_rejected(self, setup):
        with pytest.raises(ValueError, match="unknown key-stream"):
            ext_online.run(setup=setup, workloads=("nope",))


class TestAcceptance:
    def test_adaptive_matches_or_beats_best_fixed_on_phase_change(self):
        # The PR's acceptance condition, at the scale the CLI uses.
        result = ext_online.run(
            setup=make_setup("mini"),
            workloads=(ext_online.PHASE_WORKLOAD,),
            engines=("adaptive", "lru", "lfu", "fifo"),
        )
        assert ext_online.adaptive_vs_best_fixed(result) >= -0.5


class TestCheckpointing:
    def test_cells_cached_and_restored(self, setup, tmp_path, monkeypatch):
        ckpt = checkpoint_mod.SweepCheckpoint(tmp_path / "ck.json")
        kwargs = dict(
            setup=setup, workloads=("loop",), engines=("lru", "lru_cache")
        )
        first = ext_online.run(checkpoint=ckpt, **kwargs)
        assert len(ckpt) == 2

        # A resumed run must come entirely from the checkpoint: make
        # recomputation an error and require identical rows.
        def boom(*args, **kw):
            raise AssertionError("cell recomputed despite checkpoint")

        monkeypatch.setattr(ext_online, "replay", boom)
        second = ext_online.run(checkpoint=ckpt, **kwargs)
        assert second.rows == first.rows
