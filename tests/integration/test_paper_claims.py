"""Shape tests for the paper's headline claims, at reduced scale.

These are the assertions EXPERIMENTS.md is built on: we do not check
the paper's absolute numbers (our substrate is a scaled simulator), but
the *direction and rough magnitude* of every claim must hold.
"""

import pytest

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.experiments.base import make_setup, policy_cells, run_cells

# A balanced slice of the primary set: LRU-friendly, LFU-friendly,
# loop/MRU, phase-switching, pointer, streaming, dithering.
WORKLOADS = [
    "lucas", "gcc-2", "art-1", "tiff2rgba", "gcc-1", "ammp", "mcf",
    "swim", "unepic",
]


@pytest.fixture(scope="module")
def sweep():
    setup = make_setup("mini", accesses=6000)
    specs = {
        "lru": {"policy_kind": "lru"},
        "lfu": {"policy_kind": "lfu"},
        "adaptive": {"policy_kind": "adaptive"},
        "adaptive8": {"policy_kind": "adaptive", "partial_bits": 8},
        "sbar": {"policy_kind": "sbar", "num_leaders": 8},
    }
    cells = run_cells(setup, policy_cells(setup, WORKLOADS, specs))
    return {
        name: {label: cells[name, label] for label in specs}
        for name in WORKLOADS
    }


class TestHeadlineClaims:
    def test_adaptive_tracks_better_component_everywhere(self, sweep):
        """Figure 3: per-benchmark, adaptive ~= min(LRU, LFU)."""
        for name, row in sweep.items():
            best = min(row["lru"].l2_misses, row["lfu"].l2_misses)
            assert row["adaptive"].l2_misses <= 1.3 * best + 50, name

    def test_average_miss_reduction_positive(self, sweep):
        """Figure 3: ~19% average MPKI reduction vs LRU (direction +
        meaningful magnitude)."""
        lru = arithmetic_mean([r["lru"].mpki for r in sweep.values()])
        adaptive = arithmetic_mean([r["adaptive"].mpki for r in sweep.values()])
        assert percent_reduction(lru, adaptive) > 5.0

    def test_average_cpi_improvement_positive(self, sweep):
        """Figure 4: ~12.9% average CPI improvement vs LRU."""
        lru = arithmetic_mean([r["lru"].cpi for r in sweep.values()])
        adaptive = arithmetic_mean([r["adaptive"].cpi for r in sweep.values()])
        assert percent_reduction(lru, adaptive) > 3.0

    def test_never_hurts_much(self, sweep):
        """Figure 4: worst per-benchmark CPI degradation ~1%. Allow a
        little more at this tiny scale."""
        for name, row in sweep.items():
            degradation = (row["adaptive"].cpi - row["lru"].cpi) / row["lru"].cpi
            assert degradation < 0.06, (name, degradation)

    def test_lucas_follows_lru(self, sweep):
        row = sweep["lucas"]
        assert row["lru"].l2_misses < 0.7 * row["lfu"].l2_misses
        assert row["adaptive"].l2_misses <= 1.1 * row["lru"].l2_misses

    def test_art_follows_lfu(self, sweep):
        row = sweep["art-1"]
        assert row["lfu"].l2_misses < 0.9 * row["lru"].l2_misses
        assert row["adaptive"].l2_misses <= 1.1 * row["lfu"].l2_misses


class TestPartialTagClaims:
    def test_8bit_close_to_full(self, sweep):
        """Figure 5: 8-bit partial tags within ~1% of full tags on
        average (we allow 5% at this scale)."""
        full = arithmetic_mean([r["adaptive"].mpki for r in sweep.values()])
        partial = arithmetic_mean(
            [r["adaptive8"].mpki for r in sweep.values()]
        )
        assert abs(partial - full) / full < 0.05


class TestSbarClaims:
    def test_sbar_competitive(self, sweep):
        """Section 4.7: SBAR's average CPI improvement within a few
        points of full adaptivity."""
        lru = arithmetic_mean([r["lru"].cpi for r in sweep.values()])
        adaptive = arithmetic_mean([r["adaptive"].cpi for r in sweep.values()])
        sbar = arithmetic_mean([r["sbar"].cpi for r in sweep.values()])
        adaptive_gain = percent_reduction(lru, adaptive)
        sbar_gain = percent_reduction(lru, sbar)
        assert sbar_gain > 0.25 * adaptive_gain
        assert sbar_gain <= adaptive_gain + 3.0
