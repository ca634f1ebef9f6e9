"""Tests for the ext-cluster experiment and the 'cluster' CLI verb."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import ext_cluster
from repro.experiments.base import make_setup
from repro.experiments.cli import main
from tests.experiments.helpers import crash_hit_cost, run_experiment


@pytest.fixture(scope="module")
def setup():
    return make_setup("mini", accesses=4000)


@pytest.fixture(scope="module")
def result(setup):
    return run_experiment("ext-cluster", setup)


class TestRun:
    def test_full_grid_shape(self, setup, result):
        assert result.experiment == "ext-cluster"
        assert len(result.rows) == len(ext_cluster.REPLICATION_FACTORS) * 2
        for row in result.rows:
            replication, chaos, hits, hit_pct, ops, avail, hedged, reps = row
            assert replication in ext_cluster.REPLICATION_FACTORS
            assert chaos in ext_cluster.CHAOS_MODES
            assert 0 < hits <= setup.accesses
            assert 0.0 < hit_pct <= 100.0
            assert ops > 0
            assert 0.0 < avail <= 100.0
            assert hedged >= 0 and reps >= 0

    def test_notes_report_crash_cost_per_replication(self, result):
        assert len(result.notes) == len(ext_cluster.REPLICATION_FACTORS)
        assert all("member crash costs" in note for note in result.notes)

    def test_replication_rides_out_the_crash(self, result):
        """The headline claim: at replication >= 2 availability holds
        at 100% under a member crash; unreplicated it cannot."""
        by_cell = {(row[0], row[1]): row for row in result.rows}
        for replication in (2, 3):
            assert by_cell[(replication, "kill")][5] == 100.0
        assert by_cell[(1, "kill")][5] < 100.0
        assert crash_hit_cost(result, 3) <= crash_hit_cost(result, 1)

    def test_accesses_capped(self):
        setup = make_setup("mini", accesses=ext_cluster.MAX_ACCESSES * 2)
        result = run_experiment("ext-cluster", setup,
                                REPLICATION_FACTORS=(1,))
        assert str(ext_cluster.MAX_ACCESSES) in result.description

    def test_deterministic(self, setup):
        first = run_experiment("ext-cluster", setup, REPLICATION_FACTORS=(2,))
        second = run_experiment("ext-cluster", setup, REPLICATION_FACTORS=(2,))
        # Everything but the timing column reproduces exactly.
        strip = [r[:4] + r[5:] for r in first.rows]
        assert strip == [r[:4] + r[5:] for r in second.rows]


#: One kill-and-recover cell, printed as JSON without its timing field.
CELL_SCRIPT = """
import json
from repro.experiments.ext_cluster import replay_cluster
from repro.workloads.keystreams import zipf_keys
cell = replay_cluster(2, "kill", zipf_keys(1024, 2000, seed=0), 256)
cell.pop("ops_per_sec")
print(json.dumps(cell, sort_keys=True))
"""


def test_same_cells_under_every_hash_seed():
    """The peer refill after ``recover`` sweeps the cluster's resident
    keys; string hashing must not decide its order."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [sys.executable, "-c", CELL_SCRIPT], capture_output=True,
            text=True, timeout=300, env=env,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]


class TestCheckpointing:
    def test_cells_restored_not_recomputed(self, setup, tmp_path,
                                           monkeypatch):
        ckpt = checkpoint_mod.SweepCheckpoint(tmp_path / "ck.json")
        first = run_experiment("ext-cluster", setup, checkpoint=ckpt,
                               REPLICATION_FACTORS=(1,))
        assert len(ckpt) == 2

        def boom(*args, **kwargs):
            raise AssertionError("cell recomputed despite checkpoint")

        monkeypatch.setattr(ext_cluster, "replay_cluster", boom)
        resumed = run_experiment("ext-cluster", setup, checkpoint=ckpt,
                                 REPLICATION_FACTORS=(1,))
        assert resumed.rows == first.rows


class TestClusterVerb:
    def run_stream(self, directory, *extra):
        return main([
            "cluster", "--cluster-dir", str(directory),
            "--cluster-ops", "400", "--cluster-keys", "24",
            "--cluster-nodes", "3", *extra,
        ])

    def test_run_writes_ledger_and_meta(self, tmp_path, capsys):
        assert self.run_stream(tmp_path) == 0
        out = capsys.readouterr().out
        assert "acked=" in out and "ledger:" in out
        meta = json.loads((tmp_path / "META.json").read_text())
        assert meta["ops"] == 400 and meta["nodes"] == 3
        with open(tmp_path / "ACKS.jsonl") as handle:
            entries = [json.loads(line) for line in handle]
        assert entries
        assert all({"key", "version", "value"} <= set(e) for e in entries)

    def test_verify_clean_run_reports_zero_lost(self, tmp_path, capsys):
        assert self.run_stream(tmp_path) == 0
        assert main(["cluster", "--cluster-dir", str(tmp_path),
                     "--verify"]) == 0
        assert "lost=0" in capsys.readouterr().out

    def test_verify_survives_member_kill_and_partition(self, tmp_path,
                                                       capsys):
        assert self.run_stream(tmp_path, "--kill-node", "n1",
                               "--partition-node", "n2") == 0
        out = capsys.readouterr().out
        assert "killed n1" in out and "healed n2" in out
        assert main(["cluster", "--cluster-dir", str(tmp_path),
                     "--verify"]) == 0
        assert "lost=0" in capsys.readouterr().out

    def test_verify_tolerates_torn_ledger_tail(self, tmp_path, capsys):
        assert self.run_stream(tmp_path) == 0
        with open(tmp_path / "ACKS.jsonl", "a") as handle:
            handle.write('{"key": "k3", "vers')  # SIGKILL mid-append
        assert main(["cluster", "--cluster-dir", str(tmp_path),
                     "--verify"]) == 0

    def test_verify_detects_a_lost_acked_write(self, tmp_path, capsys):
        assert self.run_stream(tmp_path) == 0
        with open(tmp_path / "ACKS.jsonl", "a") as handle:
            handle.write(json.dumps(
                {"key": "never-written", "version": 10**9, "value": "x"}
            ) + "\n")
        assert main(["cluster", "--cluster-dir", str(tmp_path),
                     "--verify"]) == 1
        assert "lost acked writes" in capsys.readouterr().err

    def test_requires_cluster_dir(self, capsys):
        assert main(["cluster"]) == 2
        assert "--cluster-dir" in capsys.readouterr().err

    def test_rejects_unknown_member(self, tmp_path, capsys):
        assert self.run_stream(tmp_path, "--kill-node", "n9") == 2
        assert "no member" in capsys.readouterr().err

    def test_rejects_killing_the_partitioned_member(self, tmp_path, capsys):
        assert self.run_stream(tmp_path, "--kill-node", "n1",
                               "--partition-node", "n1") == 2

    def test_verify_without_ledger_fails(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty")
        assert main(["cluster", "--cluster-dir",
                     str(tmp_path / "empty"), "--verify"]) == 1
        assert "no ledger" in capsys.readouterr().err
