"""Tests for the methodology experiments (seeds, ext-validate)."""

import pytest

from repro.experiments.base import make_setup
from tests.experiments.helpers import row_by_label, run_experiment


@pytest.fixture(scope="module")
def setup():
    return make_setup("mini", accesses=3000)


class TestSeedSensitivity:
    @pytest.fixture(scope="class")
    def result(self, setup):
        return run_experiment("seeds", setup, ["lucas", "art-1"], SEEDS=3)

    def test_one_row_per_seed_plus_mean(self, result):
        labels = result.column("seed offset")
        assert labels == [0, 1000, 2000, "mean"]

    def test_mean_is_mean(self, result):
        per_seed = [row[1] for row in result.rows if row[0] != "mean"]
        mean = row_by_label(result, "mean")[1]
        assert mean == pytest.approx(sum(per_seed) / len(per_seed))

    def test_improvement_positive_every_seed(self, result):
        for row in result.rows:
            assert row[1] > 0.0, row

    def test_spread_note_present(self, result):
        assert any("Spread across seeds" in note for note in result.notes)


class TestExtValidate:
    @pytest.fixture(scope="class")
    def result(self, setup):
        return run_experiment("ext-validate", setup,
                              ["lucas", "art-1", "tiff2rgba"])

    def test_both_models_reported(self, result):
        assert result.headers == ["benchmark", "aggregate %", "scoreboard %"]
        assert [row[0] for row in result.rows] == [
            "lucas", "art-1", "tiff2rgba", "Average"
        ]

    def test_models_agree_on_sign_of_material_improvements(self, result):
        for row in result.rows:
            aggregate, scoreboard = row[1], row[2]
            if abs(aggregate) >= 2.0 or abs(scoreboard) >= 2.0:
                assert (aggregate > 0) == (scoreboard > 0), row

    def test_art_improves_under_both(self, result):
        row = row_by_label(result, "art-1")
        assert row[1] > 5.0
        assert row[2] > 5.0

    def test_lucas_neutral_under_both(self, result):
        """Adaptive == LRU on lucas, so both models must report ~0."""
        row = row_by_label(result, "lucas")
        assert abs(row[1]) < 1.5
        assert abs(row[2]) < 1.5
