"""Integration tests: the full pipeline from trace to CPI."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cpu.timing import compile_workload, simulate
from repro.experiments.base import Cell, build_l2_policy, make_setup, run_cells
from repro.workloads.suite import build_workload
from tests.cpu import l2_events


@pytest.fixture(scope="module")
def setup():
    return make_setup("mini", accesses=5000)


def simulate_cell(setup, name, kind, **kwargs):
    """One workload under one L2 policy spec, through the cell runner."""
    cell = Cell.of(setup, name, kind, {"policy_kind": kind, **kwargs})
    return run_cells(setup, [cell])[cell.coords]


class TestPipeline:
    def test_trace_to_cpi(self, setup):
        trace = build_workload("mcf", setup.l2, accesses=5000)
        compiled = compile_workload(trace, setup.processor)
        policy = build_l2_policy(setup.l2, "adaptive")
        result = simulate(
            compiled, SetAssociativeCache(setup.l2, policy), setup.processor
        )
        assert result.instructions == trace.instruction_count
        assert result.l2_accesses == len(compiled.l2_kinds)
        assert result.cycles > result.instructions / setup.processor.base_ipc
        parts = sum(result.breakdown.values())
        assert result.cycles == pytest.approx(parts, rel=0.25)

    def test_l1_filters_some_traffic(self, setup):
        """The suite's streams are L2-sized, so the (tiny) mini-scale L1
        only absorbs short-range reuse — but it must absorb some, and
        every L1 hit must be absent from the L2 stream."""
        trace = build_workload("crafty", setup.l2, accesses=5000)
        compiled = compile_workload(trace, setup.processor)
        assert compiled.l1_hits > 0.1 * trace.memory_access_count()
        demand_records = [
            r for r in l2_events(compiled) if r[1] != 2  # not writebacks
        ]
        assert len(demand_records) == compiled.l1_misses

    def test_breakdown_keys(self, setup):
        result = simulate_cell(setup, "lucas", "lru")
        assert set(result.breakdown) == {
            "base", "load_stall", "store_stall", "branch"
        }

    def test_policy_only_changes_l2_outcomes(self, setup):
        """Same compiled workload, different policies: the L2 access
        count is identical, only hit/miss (and cycles) differ."""
        lru = simulate_cell(setup, "art-1", "lru")
        adaptive = simulate_cell(setup, "art-1", "adaptive")
        assert lru.l2_accesses == adaptive.l2_accesses
        assert lru.instructions == adaptive.instructions
        assert lru.l2_misses != adaptive.l2_misses


class TestDeterminism:
    def test_full_run_repeatable(self, setup):
        def run():
            return (
                simulate_cell(setup, "ammp", "adaptive").cycles,
                simulate_cell(setup, "ammp", "sbar", num_leaders=4).cycles,
            )

        assert run() == run()


class TestCrossScale:
    def test_behaviour_class_survives_scaling(self):
        """lucas stays LRU-friendly from 16 KB to 64 KB caches because
        workload footprints scale with the target cache."""
        for scale, accesses in (("mini", 4000), ("scaled", 16000)):
            setup = make_setup(scale, accesses=accesses)
            lru = simulate_cell(setup, "lucas", "lru")
            lfu = simulate_cell(setup, "lucas", "lfu")
            assert lru.l2_misses < lfu.l2_misses, scale
