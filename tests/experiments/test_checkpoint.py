"""Unit tests for sweep checkpointing and resume."""

import json

import pytest

from repro.cpu import timing
from repro.cpu.timing import TimingResult
from repro.experiments import (
    base,
    cli,
    fig3_mpki,
    fig4_cpi,
    fig9_associativity,
    fig10_store_buffer,
)
from repro.experiments.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    SweepCheckpoint,
    checkpointed_cell,
    dict_cell,
    restore_cell,
    timing_from_dict,
    timing_to_dict,
)
from tests.experiments.helpers import run_experiment


class TestSweepCheckpoint:
    def test_put_get_roundtrip(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        assert len(ckpt) == 0
        ckpt.put("cell/a/b", {"misses": 3})
        assert ckpt.get("cell/a/b") == {"misses": 3}
        assert ckpt.get("missing") is None
        assert len(ckpt) == 1

    def test_persists_after_every_put(self, tmp_path):
        path = tmp_path / "ck.json"
        ckpt = SweepCheckpoint(path)
        ckpt.put("one", 1)
        ckpt.put("two", 2)
        # A fresh load (as after a crash) sees everything written so far.
        reloaded = SweepCheckpoint(path)
        assert len(reloaded) == 2
        assert reloaded.get("two") == 2

    def test_discard_persists(self, tmp_path):
        path = tmp_path / "ck.json"
        ckpt = SweepCheckpoint(path)
        ckpt.put("one", 1)
        ckpt.discard("one")
        ckpt.discard("never-there")
        assert SweepCheckpoint(path).get("one") is None

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            SweepCheckpoint(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps({"version": CHECKPOINT_VERSION + 1, "cells": {}})
        )
        with pytest.raises(CheckpointError, match="version"):
            SweepCheckpoint(path)

    def test_missing_cells_mapping_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
        with pytest.raises(CheckpointError, match="cells"):
            SweepCheckpoint(path)

    def test_cell_key_joins_parts(self):
        key = SweepCheckpoint.cell_key("cell", "fig3", "mini", 5000, "lucas")
        assert key == "cell/fig3/mini/5000/lucas"

    def test_no_tmp_files_left_behind(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        ckpt.put("a", 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]


class TestOpenOrReset:
    def test_clean_file_loads_normally(self, tmp_path):
        path = tmp_path / "ck.json"
        SweepCheckpoint(path).put("a", 1)
        ckpt = SweepCheckpoint.open_or_reset(path)
        assert ckpt.get("a") == 1

    def test_missing_file_starts_fresh(self, tmp_path):
        ckpt = SweepCheckpoint.open_or_reset(tmp_path / "ck.json")
        assert len(ckpt) == 0

    @pytest.mark.parametrize("text", [
        "{ torn mid-wri",
        # Valid JSON that is not an object.
        "[]", "null", "7", '"x"',
    ])
    def test_corrupt_file_quarantined_not_raised(self, text, tmp_path,
                                                 capsys):
        path = tmp_path / "ck.json"
        path.write_text(text)
        ckpt = SweepCheckpoint.open_or_reset(path)
        assert len(ckpt) == 0
        assert "starting fresh" in capsys.readouterr().err
        # The damaged file survives for inspection.
        assert (tmp_path / "ck.json.corrupt").read_text() == text
        # The fresh checkpoint is usable at the original path.
        ckpt.put("a", 1)
        assert SweepCheckpoint(path).get("a") == 1

    def test_wrong_version_quarantined(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps({"version": CHECKPOINT_VERSION + 9, "cells": {}})
        )
        ckpt = SweepCheckpoint.open_or_reset(path)
        assert len(ckpt) == 0
        assert (tmp_path / "ck.json.corrupt").exists()


class TestRestoreTimingCell:
    def test_valid_payload_restores(self):
        result = TimingResult(
            name="lucas", instructions=1000, cycles=2500.0,
            l2_accesses=80, l2_misses=13, breakdown={"memory": 3.0},
        )
        assert restore_cell(timing_to_dict(result), "k") == result

    @pytest.mark.parametrize("payload", [
        {"name": "x"},                      # missing fields
        "not even a dict",                  # wrong type entirely
        {"name": "x", "instructions": "a lot", "cycles": 1.0,
         "l2_accesses": 1, "l2_misses": 0, "breakdown": {}},  # bad int
        None,
    ])
    def test_damaged_payload_warns_and_returns_none(self, payload, capsys):
        assert restore_cell(payload, "cell/x/y") is None
        err = capsys.readouterr().err
        assert "cell/x/y" in err
        assert "resimulating" in err

    def test_sweep_resumes_past_corrupt_cell(self, tmp_path, capsys):
        """A torn cell inside a valid checkpoint is recomputed, not fatal."""
        setup = base.make_setup("mini", accesses=1000)
        specs = {"LRU": {"policy_kind": "lru"}}
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        key = ckpt.cell_key("cell", "exp", setup.name, setup.accesses,
                            "lucas", "LRU")
        ckpt.put(key, {"name": "lucas", "garbage": True})
        results = base.run_sweeps(
            setup, {"exp": base.policy_cells(setup, ["lucas"], specs)}, ckpt
        )["exp"]
        assert results["lucas", "LRU"].l2_accesses > 0
        assert "resimulating" in capsys.readouterr().err
        # The healed cell replaced the damaged one on disk.
        healed = SweepCheckpoint(tmp_path / "ck.json").get(key)
        assert restore_cell(healed, key) is not None


class TestDamagedMetricsCell:
    """A metrics-dict cell that is valid JSON but lost a field is
    recomputed on resume, as a damaged timing cell is."""

    @pytest.mark.parametrize("name, constants, first_key, field, timing_col", [
        ("ext-online", {"WORKLOADS": ("loop",), "ENGINES": ("lru", "lfu")},
         "cell/ext-online/mini/1500/loop/lru", "hit_pct", 5),
        ("ext-tiers", {"WORKLOADS": ("zipf",), "STRATEGIES": ("lce", "lcd")},
         "cell/ext-tiers/mini/1500/zipf/lce", "hit_pct", 5),
        ("ext-cluster", {"REPLICATION_FACTORS": (1,)},
         "cell/ext-cluster/mini/1500/1/none", "availability_pct", 4),
    ], ids=["ext-online", "ext-tiers", "ext-cluster"])
    def test_resume_recomputes_the_cell(self, name, constants, first_key,
                                        field, timing_col, tmp_path, capsys):
        setup = base.make_setup("mini", accesses=1500)
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        first = run_experiment(name, setup, checkpoint=ckpt, **constants)
        # Keys keep their historical shape, so old files still resume.
        assert ckpt.get(first_key) is not None
        damaged = dict(ckpt.get(first_key))
        del damaged[field]
        ckpt.put(first_key, damaged)

        resumed = run_experiment(name, setup, checkpoint=ckpt, **constants)
        assert "resimulating" in capsys.readouterr().err
        # The healed cell replaced the damaged one on disk.
        assert field in SweepCheckpoint(tmp_path / "ck.json").get(first_key)

        def strip(rows):  # everything but the wall-clock ops/sec column
            return [row[:timing_col] + row[timing_col + 1:] for row in rows]

        assert strip(resumed.rows) == strip(first.rows)


class TestCheckpointedCell:
    CODEC = dict_cell("hits")

    def test_without_checkpoint_computes(self):
        setup = base.make_setup("mini", accesses=1000)
        computed = []

        def compute():
            computed.append(1)
            return {"hits": 3}

        for _ in range(2):
            assert checkpointed_cell(None, "exp", setup, ("a",), compute,
                                     self.CODEC) == {"hits": 3}
        assert computed == [1, 1]

    def test_recorded_under_the_experiment_then_restored(self, tmp_path):
        setup = base.make_setup("mini", accesses=1000)
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        checkpointed_cell(ckpt, "fig3", setup, ("lucas", "LRU"),
                          lambda: {"hits": 3}, self.CODEC)
        assert len(ckpt) == 1
        assert ckpt.get("cell/fig3/mini/1000/lucas/LRU") is not None

        def fail():
            raise AssertionError("a recorded cell must not be recomputed")

        reloaded = SweepCheckpoint(tmp_path / "ck.json")
        assert checkpointed_cell(reloaded, "fig3", setup, ("lucas", "LRU"),
                                 fail, self.CODEC) == {"hits": 3}

    def test_experiments_keep_their_own_keys(self, tmp_path):
        setup = base.make_setup("mini", accesses=1000)
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        for experiment, hits in (("fig3", 1), ("fig4", 2)):
            checkpointed_cell(ckpt, experiment, setup, ("lucas",),
                              lambda h=hits: {"hits": h}, self.CODEC)
        assert ckpt.get("cell/fig3/mini/1000/lucas") == {"hits": 1}
        assert ckpt.get("cell/fig4/mini/1000/lucas") == {"hits": 2}


class TestTimingSerialization:
    def test_roundtrip(self):
        result = TimingResult(
            name="lucas", instructions=1000, cycles=2500.0,
            l2_accesses=80, l2_misses=13,
            breakdown={"l2_hit": 1.5, "memory": 3.25},
        )
        rebuilt = timing_from_dict(timing_to_dict(result))
        assert rebuilt == result
        assert rebuilt.mpki == result.mpki

    def test_json_safe(self):
        result = TimingResult(
            name="x", instructions=1, cycles=1.0,
            l2_accesses=1, l2_misses=0, breakdown={},
        )
        json.dumps(timing_to_dict(result))


@pytest.fixture
def simulate_calls(monkeypatch):
    """Every ``cpu.timing.simulate`` call, as (workload, L2 ways)."""
    calls = []
    real = timing.simulate

    def counting(compiled, l2, config):
        calls.append((compiled.name, l2.config.ways))
        return real(compiled, l2, config)

    monkeypatch.setattr(timing, "simulate", counting)
    return calls


class TestSweepUsesCheckpoint:
    def test_sweep_skips_recorded_cells(self, tmp_path, simulate_calls,
                                            monkeypatch):
        setup = base.make_setup("mini", accesses=2000)
        cells = base.policy_cells(
            setup, ["lucas", "art-1"],
            {"LRU": {"policy_kind": "lru"}, "LFU": {"policy_kind": "lfu"}},
        )
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        writes = []
        real_save = SweepCheckpoint._save

        def counting_save(self):
            writes.append(len(self))
            real_save(self)

        monkeypatch.setattr(SweepCheckpoint, "_save", counting_save)

        first = base.run_sweeps(setup, {"test-sweep": cells}, ckpt)["test-sweep"]
        assert len(simulate_calls) == 4
        assert len(ckpt) == 4
        # One whole-file write per workload, as each one finishes.
        assert writes == [2, 4]

        # A second sweep (fresh process after a crash, simulated by a
        # reloaded checkpoint) restores every cell without simulating.
        reloaded = SweepCheckpoint(tmp_path / "ck.json")
        second = base.run_sweeps(
            setup, {"test-sweep": cells}, reloaded)["test-sweep"]
        assert len(simulate_calls) == 4
        assert writes == [2, 4]
        assert second == first

    def test_sweep_pass_writes_once_per_workload(self, tmp_path,
                                                 simulate_calls, monkeypatch):
        """Two experiments' cells in one pass: each distinct cell is
        simulated once, and every cell is recorded under its own
        experiment's key in one checkpoint write per workload."""
        setup = base.make_setup("mini", accesses=2000)
        lru = {"LRU": {"policy_kind": "lru"}}
        both = dict(lru, LFU={"policy_kind": "lfu"})
        writes = []
        real_save = SweepCheckpoint._save

        def counting_save(self):
            writes.append(len(self))
            real_save(self)

        monkeypatch.setattr(SweepCheckpoint, "_save", counting_save)
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        sweeps = base.run_sweeps(setup, {
            "one": base.policy_cells(setup, ["lucas", "art-1"], lru),
            "two": base.policy_cells(setup, ["lucas", "art-1"], both),
        }, ckpt)
        assert len(simulate_calls) == 4
        assert writes == [3, 6]
        assert sweeps["one"]["lucas", "LRU"] == sweeps["two"]["lucas", "LRU"]
        assert sorted(sweeps["two"]) == sorted(
            (name, label) for name in ("lucas", "art-1") for label in both)

    def test_cell_recorded_by_one_experiment_fills_another(
        self, tmp_path, simulate_calls
    ):
        """A pass over fig3 and fig4 against a checkpoint that holds
        only fig3's cells (as a run killed after fig3 leaves it)
        simulates nothing, and records fig4's keys from fig3's values."""
        setup = base.make_setup("mini", accesses=1500)
        path = tmp_path / "ck.json"
        base.run_sweeps(setup, {"fig3": fig3_mpki.cells(setup, ["lucas"])},
                        SweepCheckpoint(path))
        simulate_calls.clear()

        ckpt = SweepCheckpoint(path)
        sweeps = base.run_sweeps(setup, {
            name: fig3_mpki.cells(setup, ["lucas"]) for name in ("fig3", "fig4")
        }, ckpt)
        assert simulate_calls == []
        for label in fig3_mpki.POLICY_SPECS:
            assert ckpt.get(f"cell/fig4/mini/1500/lucas/{label}") == \
                ckpt.get(f"cell/fig3/mini/1500/lucas/{label}")
        assert fig4_cpi.render(setup, sweeps["fig4"]).render() == \
            run_experiment("fig4", setup, ["lucas"]).render()

    def test_sweep_without_checkpoint_simulates(self):
        setup = base.make_setup("mini", accesses=1000)
        cell = base.Cell.of(setup, "lucas", "LRU", {"policy_kind": "lru"})
        results = base.run_cells(setup, [cell])
        assert results["lucas", "LRU"].l2_accesses > 0

    @pytest.mark.parametrize("module, labels", [
        (fig3_mpki, ["Adaptive", "LFU", "LRU"]),
        (fig9_associativity,
         [f"{ways}-way {policy}" for ways in (4, 8, 16, 32)
          for policy in ("LRU", "Adaptive")]),
        (fig10_store_buffer,
         [f"{entries}-entry {policy}"
          for entries in (4, 8, 16, 32, 64, 128, 256)
          for policy in ("LRU", "Adaptive")]),
    ], ids=["fig3", "fig9", "fig10"])
    def test_experiment_cells_recorded_then_restored(
        self, module, labels, tmp_path, simulate_calls
    ):
        """One checkpoint cell per (workload, geometry, policy), keyed
        ``cell/<experiment>/<scale>/<accesses>/<workload>/<label>`` as
        fig3's keys always were; a resumed run simulates nothing."""
        setup = base.make_setup("mini", accesses=1500)
        workloads = ["lucas", "art-1"]
        path = tmp_path / "ck.json"
        first = module.render(setup, base.run_sweeps(
            setup, {"exp": module.cells(setup, workloads)},
            SweepCheckpoint(path))["exp"])
        assert len(simulate_calls) == len(workloads) * len(labels)
        ckpt = SweepCheckpoint(path)
        assert len(ckpt) == len(workloads) * len(labels)
        assert all(ckpt.get(f"cell/exp/mini/1500/{name}/{label}")
                   is not None for name in workloads for label in labels)

        simulate_calls.clear()
        resumed = module.render(setup, base.run_sweeps(
            setup, {"exp": module.cells(setup, workloads)},
            SweepCheckpoint(path))["exp"])
        assert simulate_calls == []
        assert resumed.render() == first.render()


class TestOneSweepPass:
    def test_fig4_after_fig3_simulates_nothing_new(
        self, monkeypatch, capsys, simulate_calls
    ):
        """fig3 and fig4 declare the same cells: the one sweep pass of
        an invocation running both simulates each once, and fig4
        renders as it does alone."""
        args = ["--scale", "mini", "--accesses", "1500",
                "--workloads", "lucas", "art-1"]
        monkeypatch.setattr(cli, "EXPERIMENTS",
                            {"fig3": fig3_mpki, "fig4": fig4_cpi})
        assert cli.main(["all", *args]) == 0
        both = capsys.readouterr().out
        assert sorted(simulate_calls) == sorted(
            (name, 8) for name in ("lucas", "art-1")
            for _policy in fig3_mpki.POLICY_SPECS
        )

        assert cli.main(["fig4", *args]) == 0
        alone = capsys.readouterr().out
        assert "fig4:" in alone
        assert both.endswith(alone)
