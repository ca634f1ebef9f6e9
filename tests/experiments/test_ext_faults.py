"""Unit tests for the ext-faults graceful-degradation experiment."""

import pytest

from repro.experiments import ext_faults
from repro.experiments.base import make_setup
from tests.experiments.helpers import row_by_label, run_experiment


@pytest.fixture(scope="module")
def result():
    return run_experiment("ext-faults", make_setup("mini", accesses=3000),
                          ["lucas", "art-1"], RATES=(0.01, 0.5))


class TestExtFaults:
    def test_table_shape(self, result):
        assert result.experiment == "ext-faults"
        assert result.headers[:4] == [
            "benchmark", "LRU MPKI", "adaptive MPKI", "armed rate 0",
        ]
        assert "rate 0.01" in result.headers
        assert "rate 0.5" in result.headers
        labels = [row[0] for row in result.rows]
        assert labels == ["lucas", "art-1", "Average"]

    def test_armed_quiet_matches_baseline(self, result):
        for name in ("lucas", "art-1"):
            row = row_by_label(result, name)
            assert row[3] == row[2], name

    def test_faults_were_actually_injected(self, result):
        faults = result.column("faults")[:2]
        assert all(count > 0 for count in faults)

    def test_invariant_note_present(self, result):
        notes = " ".join(result.notes)
        assert "hits + misses == accesses" in notes

    def test_mpki_values_are_finite_and_positive(self, result):
        for header in result.headers[1:-2]:
            for value in result.column(header):
                assert 0.0 <= value < 10_000.0


class TestDeltaPercent:
    def test_regular(self):
        assert ext_faults._delta_percent(10.0, 12.5) == 25.0
        assert ext_faults._delta_percent(10.0, 10.0) == 0.0

    def test_zero_baseline(self):
        assert ext_faults._delta_percent(0.0, 5.0) == 0.0
