"""Tests for the extension experiments (Section 6 future work) and
the design-choice ablations."""

import pytest

from repro.experiments.base import make_setup
from tests.experiments.helpers import row_by_label, run_experiment


@pytest.fixture(scope="module")
def setup():
    return make_setup("mini", accesses=4000)


class TestExtShared:
    # Each mix is simulated on its own, so one run serves every test.
    @pytest.fixture(scope="class")
    def result(self, setup):
        return run_experiment("ext-shared", setup, PAIRS=[
            ("lucas", "tiff2rgba"), ("gcc-2", "art-1"), ("bzip2", "xanim"),
            ("parser", "x11quake-1"),
        ])

    def test_rows_per_pair(self, result):
        assert [row[0] for row in result.rows] == [
            "lucas+tiff2rgba", "gcc-2+art-1", "bzip2+xanim",
            "parser+x11quake-1",
        ]

    def test_adaptive_beats_lru_on_mixes(self, result):
        for mix in ("lucas+tiff2rgba", "bzip2+xanim"):
            assert row_by_label(result, mix)[4] > 0.0, mix  # vs LRU %

    def test_adaptive_near_best_fixed(self, result):
        # vs best fixed %
        assert row_by_label(result, "parser+x11quake-1")[5] > -15.0


class TestExtPrefetch:
    # Each workload is simulated on its own, so one run serves every test.
    @pytest.fixture(scope="class")
    def result(self, setup):
        return run_experiment("ext-prefetch", setup,
                              ["swim", "mcf", "lucas", "ft"])

    def test_configurations_present(self, result):
        assert result.headers == [
            "benchmark", "none", "nextline", "stride", "hybrid"
        ]

    def test_stride_wins_on_sweeps(self, result):
        row = row_by_label(result, "swim")
        none, stride = row[1], row[3]
        assert stride < 0.5 * none

    def test_hybrid_tracks_best_component(self, result):
        for name in ("swim", "mcf", "lucas"):
            row = row_by_label(result, name)
            best = min(row[1:4])
            hybrid = row[4]
            assert hybrid <= 1.25 * best + 1.0, name

    def test_prefetch_never_explodes_misses(self, result):
        """Even on pointer chasing, the hybrid's pollution stays
        bounded relative to no prefetching."""
        for name in ("mcf", "ft"):
            row = row_by_label(result, name)
            assert row[4] <= 1.3 * row[1], name


class TestExtDip:
    @pytest.fixture(scope="class")
    def result(self, setup):
        return run_experiment("ext-dip", setup, ["art-1", "gcc-1", "lucas"])

    def test_dip_fixes_thrashing(self, result):
        for name in ("art-1", "gcc-1"):
            row = row_by_label(result, name)
            dip, lru = row[1], row[5]
            assert dip < 0.8 * lru, name

    def test_dip_tracks_lru_on_recency(self, result):
        row = row_by_label(result, "lucas")
        assert row[1] <= 1.1 * row[5]

    def test_full_adaptive_lru_bip_comparable(self, result):
        avg = row_by_label(result, "Average")
        dip, adaptive_bip = avg[1], avg[2]
        assert abs(dip - adaptive_bip) / adaptive_bip < 0.35


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self, setup):
        return run_experiment("ablations", setup, ["lucas", "art-1", "ammp"])

    def test_groups_covered(self, result):
        groups = set(result.column("group"))
        assert groups == {
            "baseline", "history kind", "history window", "fallback",
            "partial tags (8-bit)", "sbar leaders",
        }

    def test_baseline_present(self, result):
        baseline = [row for row in result.rows if row[0] == "baseline"]
        assert len(baseline) == 1

    def test_variants_near_baseline(self, result):
        """The robustness claim: no reasonable variant collapses."""
        baseline_mpki = next(
            row[2] for row in result.rows if row[0] == "baseline"
        )
        for row in result.rows:
            assert row[2] < 2.0 * baseline_mpki, row

    def test_all_metrics_positive(self, result):
        for row in result.rows:
            assert row[2] > 0
            assert row[3] > 0
