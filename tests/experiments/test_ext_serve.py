"""Tests for the ext-serve experiment and the ``serve`` CLI verb."""

import json

import pytest

from repro.experiments import ext_serve
from repro.experiments.base import make_setup
from repro.experiments.cli import EXPERIMENTS, build_parser, main
from tests.conftest import serve_report


@pytest.fixture
def result(shared_run_serve):
    return ext_serve.run(make_setup("scaled"), seed=0, quick=True)


class TestRun:
    def test_table_shape(self, result):
        assert result.experiment == "ext-serve"
        assert len(result.rows) == 5
        regimes = [row[0] for row in result.rows]
        assert regimes == [
            "steady", "overload", "degraded", "recovery", "steady_tiered",
        ]
        for row in result.rows:
            offered, goodput = row[1], row[2]
            assert 0 < goodput <= offered

    def test_notes_tell_the_slo_story(self, result):
        text = " ".join(result.notes)
        assert "shed" in text
        assert "stale" in text
        assert "sketch" in text.lower()
        assert "byte-identical" in text or "seed" in text
        assert "replayed live" in text
        assert "Digest match vs stop-the-world recovery: True" in text
        assert "Tiered front" in text

    def test_mini_setup_maps_to_quick(self, result, shared_run_serve):
        # Same seed + quick flag must match the mini-setup run exactly:
        # the harness is deterministic, so the tables are equal.
        via_setup = ext_serve.run(make_setup("mini"), seed=0, quick=False)
        assert shared_run_serve == [(True, 0), (True, 0)]
        assert via_setup.rows == result.rows

    def test_to_result_keeps_wrong_value_column(self, result):
        wrong_column = result.headers.index("wrong")
        assert all(row[wrong_column] == 0 for row in result.rows)


class TestCli:
    def test_ext_serve_registered(self):
        assert "ext-serve" in EXPERIMENTS
        assert EXPERIMENTS["ext-serve"] is ext_serve

    def test_parser_accepts_serve_verbs(self):
        parser = build_parser()
        assert parser.parse_args(["ext-serve"]).experiment == "ext-serve"
        args = parser.parse_args(["serve", "--serve-out", "x.json"])
        assert args.experiment == "serve"
        assert args.serve_out == "x.json"

    def test_serve_verb_writes_report(self, capsys, tmp_path,
                                      shared_run_serve):
        out = tmp_path / "bench.json"
        code = main(["serve", "--quick", "--seed", "2",
                     "--serve-out", str(out)])
        assert code == 0
        assert shared_run_serve == [(True, 2)]
        printed = capsys.readouterr().out
        for name in ("steady", "overload", "degraded"):
            assert name in printed
        payload = json.loads(out.read_text())
        assert payload["seed"] == 2
        assert payload["quick"] is True
        # The file is the canonical serialization of the same run.
        assert out.read_text() == serve_report(True, 2).to_json()

    def test_ext_serve_verb_renders_table(self, capsys):
        # A real harness run: --seed reaches it.
        assert main(["ext-serve", "--quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ext-serve" in out
        assert "degraded" in out
        assert "Seed 1, quick scale" in out
