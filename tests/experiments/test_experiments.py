"""Smoke + shape tests for the figure and section drivers.

Each driver runs at a tiny scale with a 3-workload subset covering the
three locality classes, so the whole module stays fast while still
checking the *direction* of every figure's result. The registry-wide
paper-shape checks (storage and theory included) live in
``test_paper_shapes.py``.
"""

import pytest

from repro.experiments import base, fig7_setmaps
from tests.experiments.helpers import row_by_label, run_experiment

SUBSET = ["lucas", "art-1", "tiff2rgba"]


@pytest.fixture(scope="module")
def setup():
    return base.make_setup("mini", accesses=4000)


@pytest.fixture(scope="module")
def fig3(setup):
    return run_experiment("fig3", setup, SUBSET)


@pytest.fixture(scope="module")
def fig6(setup):
    return run_experiment("fig6", setup, SUBSET)


@pytest.fixture(scope="module")
def fig8(setup):
    return run_experiment("fig8", setup, SUBSET)


@pytest.fixture(scope="module")
def fig10(setup):
    return run_experiment("fig10", setup, SUBSET, BUFFER_SIZES=(4, 64))


class TestFig3:
    def test_rows_and_average(self, fig3):
        assert [row[0] for row in fig3.rows] == SUBSET + ["Average"]
        assert fig3.headers == ["benchmark", "Adaptive", "LFU", "LRU"]

    def test_adaptive_tracks_best(self, fig3):
        for name in SUBSET:
            row = row_by_label(fig3, name)
            adaptive, lfu, lru = row[1], row[2], row[3]
            assert adaptive <= 1.25 * min(lfu, lru), name

    def test_average_improves_on_lru(self, fig3):
        avg = row_by_label(fig3, "Average")
        assert avg[1] < avg[3]  # Adaptive < LRU


class TestFig4:
    def test_cpi_positive_and_ordered(self, setup):
        result = run_experiment("fig4", setup, SUBSET)
        for row in result.rows:
            assert all(value > 0 for value in row[1:])
        avg = row_by_label(result, "Average")
        assert avg[1] <= min(avg[2], avg[3]) * 1.05


class TestFig5:
    def test_tag_width_sweep(self, setup):
        result = run_experiment("fig5", setup, SUBSET,
                                TAG_WIDTHS=(None, 10, 6, 2))
        labels = result.column("tag width")
        assert labels == ["full", "10-bit", "6-bit", "2-bit"]
        increases = result.column("MPKI increase %")
        assert increases[0] == pytest.approx(0.0)
        # Wide partial tags stay near full; 2-bit tags visibly degrade.
        assert abs(increases[1]) < 5.0
        assert increases[3] > increases[1] - 1e-9


class TestFig6:
    def test_configurations_present(self, fig6):
        labels = fig6.column("configuration")
        assert any("9-way" in label for label in labels)
        assert any("10-way" in label for label in labels)

    def test_bigger_lru_caches_help_lru(self, fig6):
        base_cpi = row_by_label(fig6, "LRU (8-way)")[1]
        ten_way = next(r for r in fig6.rows if "10-way" in r[0])[1]
        assert ten_way <= base_cpi * 1.02

    def test_adaptive_competitive_with_capacity(self, fig6):
        adaptive = row_by_label(fig6, "Adaptive (8-bit tags)")[1]
        ten_way = next(r for r in fig6.rows if "10-way" in r[0])[1]
        # Figure 6's claim: adaptivity beats the 25%-bigger cache.
        assert adaptive < ten_way * 1.05


class TestFig7:
    def test_fractions_in_range(self, setup):
        result = run_experiment("fig7", setup, SAMPLES=6)
        for row in result.rows:
            assert all(0.0 <= v <= 1.0 for v in row[1:])

    def test_collect_returns_map(self, setup, monkeypatch):
        monkeypatch.setattr(fig7_setmaps, "SAMPLES", 6)
        setmap, policy = fig7_setmaps.collect("ammp", setup)
        assert setmap.num_sets == setup.l2.num_sets
        assert len(policy.shadows) == 2


class TestFig8:
    def test_adaptive_tracks_best_of_fifo_mru(self, fig8):
        for name in SUBSET:
            row = row_by_label(fig8, name)
            adaptive, fifo, mru = row[1], row[2], row[3]
            assert adaptive <= 1.3 * min(fifo, mru), name

    def test_mru_wins_on_art(self, fig8):
        row = row_by_label(fig8, "art-1")
        assert row[3] < row[2]  # MRU < FIFO


class TestFig9:
    def test_rows_per_associativity(self, setup):
        result = run_experiment("fig9", setup, SUBSET,
                                ASSOCIATIVITIES=(4, 8))
        assert result.column("ways") == [4, 8]
        for row in result.rows:
            assert row[1] > -20.0  # improvement never catastrophic


class TestFig10:
    def test_benefit_shrinks_with_buffer(self, fig10):
        improvements = fig10.column("improvement %")
        assert improvements[0] >= improvements[1] - 2.0

    def test_cpi_decreases_with_buffer(self, fig10):
        lru = fig10.column("LRU avg CPI")
        assert lru[1] <= lru[0]


class TestSec44:
    def test_five_policy_close_to_two(self, setup):
        result = run_experiment("sec44", setup, SUBSET)
        avg = row_by_label(result, "Average")
        two, five = avg[1], avg[2]
        assert abs(five - two) / two < 0.25


class TestSec46:
    def test_l1_rows(self, setup):
        result = run_experiment("sec46", setup, SUBSET)
        labels = result.column("cache")
        assert labels == ["L1 instruction", "L1 data"]
        # Adaptive never dramatically worse at either L1.
        for row in result.rows:
            assert row[3] > -10.0


class TestSec47:
    def test_sbar_between_lru_and_adaptive(self, setup):
        result = run_experiment("sec47", setup, SUBSET, NUM_LEADERS=8)
        avg = row_by_label(result, "Average")
        adaptive, sbar, lru = avg[1], avg[2], avg[4]
        assert sbar <= lru * 1.02
        assert sbar >= adaptive * 0.9
