"""Unit tests for the repro-experiments CLI."""

import itertools
import json

import pytest

from repro.cpu import timing
from repro.experiments import cli, ext_cluster, ext_online, ext_tiers
from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.cli import EXPERIMENTS, main

#: The experiments that declare their cells for the one sweep pass.
SWEEP_EXPERIMENTS = {
    "fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10",
    "sec44", "sec47", "ext-dip",
}

#: The (row, column) coordinates of each ``checkpointed_cell`` loop.
CELL_GRIDS = {
    "ext-online": list(itertools.product(ext_online.WORKLOADS,
                                         ext_online.ENGINES)),
    "ext-tiers": list(itertools.product(ext_tiers.WORKLOADS,
                                        ext_tiers.STRATEGIES)),
    "ext-cluster": list(itertools.product(ext_cluster.REPLICATION_FACTORS,
                                          ext_cluster.CHAOS_MODES)),
}


class TestCli:
    def test_all_experiments_registered(self):
        expected = {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "sec44", "sec46", "sec47", "storage", "theory",
            "ablations", "ext-shared", "ext-prefetch", "ext-dip", "ext-skew",
            "ext-validate", "ext-faults", "ext-online", "ext-cluster",
            "ext-tiers", "ext-serve", "seeds",
        }
        assert set(EXPERIMENTS) == expected

    def test_policies_subcommand(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("lru", "lfu", "fifo", "mru", "random", "srrip", "bip"):
            assert name in out
        assert "adaptive" in out  # composite kinds are mentioned
        assert "sbar" in out

    def test_storage_runs(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "544" in out
        assert "overhead" in out

    def test_fig3_with_subset(self, capsys):
        code = main([
            "fig3", "--scale", "mini", "--accesses", "2000",
            "--workloads", "lucas", "art-1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lucas" in out
        assert "Average" in out

    def test_fig7_render_map(self, capsys):
        code = main([
            "fig7", "--scale", "mini", "--accesses", "3000", "--render-map",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-set map" in out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--scale", "huge"])

    def test_non_positive_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig3", "--timeout", "-5"])
        assert "must be > 0" in capsys.readouterr().err


class _StubResult:
    """Minimal experiment result: just renders fixed text."""

    def __init__(self, text):
        self.text = text

    def render(self):
        return self.text


class _StubExperiment:
    """A scripted experiment module: fails N times, then succeeds."""

    def __init__(self, name, failures=0, interrupts=0):
        self.name = name
        self.failures = failures
        self.interrupts = interrupts
        self.calls = 0

    def run(self, setup):
        self.calls += 1
        if self.interrupts > 0:
            self.interrupts -= 1
            raise KeyboardInterrupt
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError(f"{self.name} exploded")
        return _StubResult(f"{self.name} results")


class _StubSweep:
    """A scripted sweep experiment: declares no cells, or raises."""

    def __init__(self, name, fails=False):
        self.name = name
        self.fails = fails
        self.renders = 0

    def cells(self, setup):
        if self.fails:
            raise RuntimeError(f"{self.name} cells exploded")
        return []

    def render(self, setup, sweep):
        self.renders += 1
        return _StubResult(f"{self.name} results")


@pytest.fixture
def compile_calls(monkeypatch):
    """The workload of every ``cpu.timing.compile_workload`` call."""
    calls = []
    real = timing.compile_workload

    def counting(trace, config):
        calls.append(trace.name)
        return real(trace, config)

    monkeypatch.setattr(timing, "compile_workload", counting)
    return calls


@pytest.fixture
def stub_experiments(monkeypatch):
    """Replace the registry with three cheap scripted experiments."""

    def install(**stubs):
        monkeypatch.setattr(cli, "EXPERIMENTS", dict(stubs))
        return stubs

    return install


class TestKeepGoing:
    def test_failure_stops_sweep_by_default(self, stub_experiments, capsys):
        stubs = stub_experiments(
            aaa=_StubExperiment("aaa"),
            bbb=_StubExperiment("bbb", failures=99),
            ccc=_StubExperiment("ccc"),
        )
        assert main(["all", "--scale", "mini"]) == 1
        captured = capsys.readouterr()
        assert "bbb exploded" in captured.err
        # The sweep stopped at the failure: ccc never ran.
        assert stubs["ccc"].calls == 0

    def test_keep_going_collects_failures(self, stub_experiments, capsys):
        stubs = stub_experiments(
            aaa=_StubExperiment("aaa"),
            bbb=_StubExperiment("bbb", failures=99),
            ccc=_StubExperiment("ccc"),
        )
        assert main(["all", "--scale", "mini", "--keep-going"]) == 1
        captured = capsys.readouterr()
        # Healthy experiments still ran and printed.
        assert stubs["ccc"].calls == 1
        assert "aaa results" in captured.out
        assert "ccc results" in captured.out
        # The per-experiment failure summary names the casualty.
        assert "1 experiment(s) failed" in captured.err
        assert "RuntimeError: bbb exploded" in captured.err


    def test_keep_going_over_the_sweep_pass(self, stub_experiments, capsys,
                                            tmp_path):
        """A failed sweep pass fails every pending sweep experiment;
        the experiments with their own loops still run and print."""
        ckpt_path = tmp_path / "ck.json"
        SweepCheckpoint(ckpt_path).put("done/eee/mini", "eee results")
        stubs = stub_experiments(
            aaa=_StubExperiment("aaa"),
            bbb=_StubSweep("bbb", fails=True),
            ccc=_StubSweep("ccc"),
            ddd=_StubExperiment("ddd"),
            eee=_StubSweep("eee", fails=True),
        )
        assert main(["all", "--scale", "mini", "--keep-going",
                     "--resume", str(ckpt_path)]) == 1
        captured = capsys.readouterr()
        assert "aaa results" in captured.out
        assert "ddd results" in captured.out
        assert stubs["aaa"].calls == stubs["ddd"].calls == 1
        assert stubs["ccc"].renders == 0
        # eee finished in an earlier run, so it was not pending.
        assert "eee: already complete" in captured.out
        assert "2 experiment(s) failed" in captured.err
        table = captured.err.split("2 experiment(s) failed")[1]
        for name in ("bbb", "ccc"):
            assert f"{name} " in table
            assert "RuntimeError: bbb cells exploded" in table
        assert "eee" not in table


    def test_failed_sweep_pass_stops_by_default(self, stub_experiments,
                                                capsys):
        stubs = stub_experiments(
            aaa=_StubExperiment("aaa"),
            bbb=_StubSweep("bbb", fails=True),
            ccc=_StubSweep("ccc"),
        )
        assert main(["all", "--scale", "mini"]) == 1
        captured = capsys.readouterr()
        assert "bbb cells exploded" in captured.err
        # The pass runs first: nothing rendered or ran after it failed.
        assert stubs["aaa"].calls == 0
        assert stubs["ccc"].renders == 0
        assert captured.out == ""


class TestSweepPass:
    def test_registry_sweeps_declare_cells(self):
        assert {name for name, module in EXPERIMENTS.items()
                if hasattr(module, "cells")} == SWEEP_EXPERIMENTS

    def test_all_compiles_each_workload_once(self, monkeypatch, capsys,
                                             compile_calls):
        monkeypatch.setattr(cli, "EXPERIMENTS", {
            name: EXPERIMENTS[name] for name in SWEEP_EXPERIMENTS})
        assert main(["all", "--scale", "mini", "--accesses", "1000",
                     "--workloads", "lucas", "art-1"]) == 0
        assert sorted(compile_calls) == ["art-1", "lucas"]
        out = capsys.readouterr().out
        for name in SWEEP_EXPERIMENTS:
            assert f"{name}:" in out


class TestResume:
    def test_resume_is_the_one_checkpoint_flag(self):
        parser = cli.build_parser()
        assert parser.parse_args(["all"]).resume is None
        assert parser.parse_args(["all", "--resume"]).resume == \
            cli.DEFAULT_CHECKPOINT
        assert parser.parse_args(["all", "--resume", "x.json"]).resume == \
            "x.json"
        with pytest.raises(SystemExit):
            parser.parse_args(["all", "--checkpoint", "x.json"])

    def test_interrupt_then_resume_skips_completed(
        self, stub_experiments, capsys, tmp_path
    ):
        ckpt_path = str(tmp_path / "ck.json")
        stubs = stub_experiments(
            aaa=_StubExperiment("aaa"),
            bbb=_StubExperiment("bbb", interrupts=1),
        )
        # First run: aaa completes, then ^C lands during bbb.
        code = main(["all", "--scale", "mini", "--resume", ckpt_path])
        assert code == 130
        captured = capsys.readouterr()
        assert "--resume" in captured.err
        assert stubs["aaa"].calls == 1

        # Resumed run: aaa is restored from the checkpoint, not rerun.
        code = main(["all", "--scale", "mini", "--resume", ckpt_path])
        assert code == 0
        captured = capsys.readouterr()
        assert stubs["aaa"].calls == 1
        assert stubs["bbb"].calls == 2
        assert "already complete" in captured.out
        assert "aaa results" in captured.out
        assert "bbb results" in captured.out

    def test_checkpoint_records_done_cells(
        self, stub_experiments, capsys, tmp_path
    ):
        ckpt_path = tmp_path / "ck.json"
        stub_experiments(aaa=_StubExperiment("aaa"))
        assert main(["aaa", "--scale", "mini",
                     "--resume", str(ckpt_path)]) == 0
        payload = json.loads(ckpt_path.read_text())
        assert payload["cells"]["done/aaa/mini"] == "aaa results"

    def test_other_accesses_or_workloads_are_not_restored(
        self, capsys, tmp_path
    ):
        ckpt = str(tmp_path / "ck.json")
        base = ["fig3", "--scale", "mini", "--resume", ckpt]

        def run(*flags):
            assert main([*base, *flags]) == 0
            return capsys.readouterr().out

        short = run("--accesses", "1000", "--workloads", "lucas")
        longer = run("--accesses", "3000", "--workloads", "lucas")
        assert "already complete" not in longer
        assert longer != short
        both = run("--accesses", "1000", "--workloads", "lucas", "art-1")
        assert "already complete" not in both
        assert "art-1" in both
        again = run("--accesses", "1000", "--workloads", "lucas")
        assert "already complete" in again
        assert short in again

    def test_other_seed_quick_or_render_map_are_not_restored(
        self, stub_experiments, capsys, tmp_path
    ):
        stub = stub_experiments(aaa=_StubExperiment("aaa"))["aaa"]
        base = ["aaa", "--scale", "mini", "--resume",
                str(tmp_path / "ck.json")]

        def run(*flags):
            assert main([*base, *flags]) == 0
            return capsys.readouterr().out

        assert "already complete" not in run("--seed", "1")
        assert "already complete" not in run("--seed", "2")
        assert "already complete" not in run("--seed", "1", "--quick")
        assert "already complete" not in run("--seed", "1", "--render-map")
        assert stub.calls == 4
        assert "already complete" in run("--seed", "2")
        assert "already complete" not in run()
        assert "already complete" in run("--seed", "0")
        assert stub.calls == 5

    def test_report_records_and_restores_cells(
        self, monkeypatch, capsys, tmp_path, compile_calls
    ):
        """``report --checkpoint`` records the sweep cells and the
        ``checkpointed_cell`` grids; a second report compiles nothing
        for the sweep experiments and writes the same report."""
        monkeypatch.setattr(cli, "EXPERIMENTS", {
            name: EXPERIMENTS[name]
            for name in ("fig3", "fig4", "ext-online", "storage")})
        ckpt_path = tmp_path / "ck.json"
        out = tmp_path / "report.md"
        argv = ["report", "--scale", "mini", "--accesses", "1000",
                "--workloads", "lucas", "--resume", str(ckpt_path),
                "--out", str(out)]
        assert main(argv) == 0
        assert compile_calls == ["lucas"]
        ckpt = SweepCheckpoint(ckpt_path)
        assert ckpt.get("cell/fig3/mini/1000/lucas/Adaptive") is not None
        assert ckpt.get("cell/fig4/mini/1000/lucas/Adaptive") is not None
        assert all(ckpt.get(f"cell/ext-online/mini/1000/{row}/{column}")
                   is not None for row, column in CELL_GRIDS["ext-online"])
        first = out.read_text()

        compile_calls.clear()
        assert main(argv) == 0
        assert compile_calls == []
        assert len(SweepCheckpoint(ckpt_path)) == len(ckpt)

        def strip(text):  # ext-online's wall-clock ops/sec column varies
            return [line.rsplit("|", 3)[0] for line in text.splitlines()]

        assert strip(out.read_text()) == strip(first)

    @pytest.mark.parametrize("name", ["ext-online", "ext-tiers",
                                      "ext-cluster"])
    def test_checkpoint_reaches_the_cell_loops(self, name, capsys, tmp_path):
        """The experiments with their own ``checkpointed_cell`` loops
        record their cells in the ``--checkpoint`` file."""
        ckpt_path = tmp_path / "ck.json"
        assert main([name, "--scale", "mini", "--accesses", "1000",
                     "--resume", str(ckpt_path)]) == 0
        ckpt = SweepCheckpoint(ckpt_path)
        assert all(ckpt.get(f"cell/{name}/mini/1000/{row}/{column}")
                   is not None for row, column in CELL_GRIDS[name])

    def test_corrupt_checkpoint_quarantined(
        self, stub_experiments, capsys, tmp_path
    ):
        ckpt_path = tmp_path / "ck.json"
        ckpt_path.write_text("{ definitely not json")
        stub_experiments(aaa=_StubExperiment("aaa"))
        assert main(["aaa", "--scale", "mini",
                     "--resume", str(ckpt_path)]) == 0
        captured = capsys.readouterr()
        assert "starting fresh" in captured.err
        assert (tmp_path / "ck.json.corrupt").exists()
        # The fresh checkpoint recorded this run.
        assert "cells" in json.loads(ckpt_path.read_text())

    def test_failed_experiment_not_marked_done(
        self, stub_experiments, capsys, tmp_path
    ):
        ckpt_path = tmp_path / "ck.json"
        stub_experiments(bbb=_StubExperiment("bbb", failures=99))
        assert main(["bbb", "--scale", "mini",
                     "--resume", str(ckpt_path)]) == 1
        stubs2 = stub_experiments(bbb=_StubExperiment("bbb"))
        assert main(["bbb", "--scale", "mini",
                     "--resume", str(ckpt_path)]) == 0
        # The failure was not checkpointed, so the retry really ran.
        assert stubs2["bbb"].calls == 1


class TestGoldenSubcommand:
    def test_check_passes_on_clean_tree(self, capsys):
        assert main(["golden"]) == 0
        assert "match" in capsys.readouterr().out

    def test_regen_writes_requested_path(self, capsys, tmp_path):
        target = tmp_path / "golden.json"
        assert main(["golden", "--regen", "--golden-path",
                     str(target)]) == 0
        assert target.exists()
        assert str(target) in capsys.readouterr().out

    def test_check_fails_against_stale_digests(self, capsys, tmp_path):
        target = tmp_path / "golden.json"
        target.write_text('{"format": 1, "experiments": {}}')
        assert main(["golden", "--golden-path", str(target)]) == 1
        assert capsys.readouterr().err

    def test_checking_has_no_flag(self):
        """Checking is what ``golden`` does; only ``--regen`` changes it."""
        with pytest.raises(SystemExit):
            main(["golden", "--check"])
