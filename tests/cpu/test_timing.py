"""Unit tests for the two-phase timing model."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cpu.config import ProcessorConfig
from repro.cpu.timing import (
    L2_LOAD,
    L2_STORE,
    L2_WRITEBACK,
    CompiledWorkload,
    compile_workload,
    simulate,
)
from repro.policies.lru import LRUPolicy
from repro.workloads.trace import (
    KIND_BRANCH_NOT_TAKEN,
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    KIND_STORE,
    Trace,
)
from tests.cpu import l2_columns, l2_events


@pytest.fixture
def processor():
    l1 = CacheConfig(size_bytes=1024, ways=4, line_bytes=64, hit_latency=2)
    l2 = CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64, hit_latency=15)
    return ProcessorConfig(l1d=l1, l1i=l1, l2=l2)


def l2_cache(processor):
    config = processor.l2
    return SetAssociativeCache(config, LRUPolicy(config.num_sets, config.ways))


class TestCompile:
    def test_l1_hits_filtered(self, processor):
        trace = Trace.from_records("t", [(KIND_LOAD, 0x1000, 0)] * 10)
        compiled = compile_workload(trace, processor)
        assert compiled.l1_misses == 1
        assert compiled.l1_hits == 9
        assert len(compiled.l2_kinds) == 1
        assert compiled.instructions == 10

    def test_gaps_accumulate(self, processor):
        trace = Trace.from_records(
            "t",
            [
                (KIND_LOAD, 0x1000, 5),
                (KIND_LOAD, 0x1000, 3),  # L1 hit: folded into the gap
                (KIND_LOAD, 0x9000, 2),
            ],
        )
        compiled = compile_workload(trace, processor)
        assert len(compiled.l2_kinds) == 2
        # First record: 5 preceding instructions.
        assert l2_events(compiled)[0][0] == 5
        # Second: 3 + the hit itself + 2 = 6.
        assert l2_events(compiled)[1][0] == 6

    def test_store_kind_propagates(self, processor):
        trace = Trace.from_records("t", [(KIND_STORE, 0x1000, 0)])
        compiled = compile_workload(trace, processor)
        assert l2_events(compiled)[0][1] == L2_STORE

    def test_l1_writeback_emitted(self, processor):
        l1 = processor.l1d
        set_index = 0
        dirty = l1.rebuild_address(1, set_index)
        records = [(KIND_STORE, dirty, 0)]
        for tag in range(2, 2 + l1.ways):
            records.append((KIND_LOAD, l1.rebuild_address(tag, set_index), 0))
        compiled = compile_workload(Trace.from_records("t", records), processor)
        kinds = [r[1] for r in l2_events(compiled)]
        assert L2_WRITEBACK in kinds
        wb = next(r for r in l2_events(compiled) if r[1] == L2_WRITEBACK)
        assert wb[2] == dirty

    def test_branches_counted(self, processor):
        records = [(KIND_BRANCH_TAKEN, 0x400000, 2)] * 50 + [
            (KIND_BRANCH_NOT_TAKEN, 0x400000, 2)
        ] * 50
        compiled = compile_workload(Trace.from_records("t", records), processor)
        assert compiled.branches == 100
        assert compiled.branch_mispredicts > 0
        assert compiled.tail_instructions > 0

    def test_instruction_count_preserved(self, processor):
        trace = Trace.from_records(
            "t",
            [
                (KIND_LOAD, 0x1000, 3),
                (KIND_BRANCH_TAKEN, 0x400000, 4),
                (KIND_STORE, 0x9000, 5),
            ],
        )
        compiled = compile_workload(trace, processor)
        accounted = (
            sum(r[0] for r in l2_events(compiled))
            + sum(1 for r in l2_events(compiled) if r[1] != L2_WRITEBACK)
            + compiled.tail_instructions
        )
        # All instructions are either folded into L2-record gaps, are L2
        # events themselves, or sit in the tail.
        assert accounted == trace.instruction_count


class TestSimulate:
    def test_cpi_floor(self, processor):
        compiled = CompiledWorkload(
            name="empty", instructions=1000, tail_instructions=1000
        )
        result = simulate(compiled, l2_cache(processor), processor)
        assert result.cpi == pytest.approx(1.0 / processor.base_ipc)

    def test_misses_cost_cycles(self, processor):
        hit_stream = CompiledWorkload(
            name="hits", instructions=1000,
            **l2_columns([(10, L2_LOAD, 0x1000)] * 50),
        )
        miss_stream = CompiledWorkload(
            name="misses", instructions=1000,
            **l2_columns([(10, L2_LOAD, 0x1000 + i * 0x10000) for i in range(50)]),
        )
        hits = simulate(hit_stream, l2_cache(processor), processor)
        misses = simulate(miss_stream, l2_cache(processor), processor)
        assert misses.cycles > hits.cycles
        assert misses.l2_misses == 50
        assert hits.l2_misses == 1

    def test_monotonic_in_memory_latency(self, processor):
        compiled = CompiledWorkload(
            name="m", instructions=2000,
            **l2_columns([(10, L2_LOAD, i * 0x10000) for i in range(100)]),
        )
        cycles = []
        for latency in (50, 120, 300):
            config = processor.scaled(memory_latency=latency)
            cycles.append(simulate(compiled, l2_cache(config), config).cycles)
        assert cycles[0] < cycles[1] < cycles[2]

    def test_store_stalls_shrink_with_buffer(self, processor):
        records = [(2, L2_STORE, i * 0x10000) for i in range(200)]
        compiled = CompiledWorkload(name="s", instructions=1000,
                                    **l2_columns(records))
        small = simulate(
            compiled, l2_cache(processor),
            processor.scaled(store_buffer_entries=2),
        )
        large = simulate(
            compiled, l2_cache(processor),
            processor.scaled(store_buffer_entries=256),
        )
        assert small.breakdown["store_stall"] > large.breakdown["store_stall"]
        assert small.cycles > large.cycles

    def test_mlp_overlap_helps(self, processor):
        """Clustered misses (within the ROB window) must cost less than
        the same misses spread out."""
        clustered = CompiledWorkload(
            name="c", instructions=10_000,
            **l2_columns([(1, L2_LOAD, i * 0x10000) for i in range(64)]),
        )
        spread = CompiledWorkload(
            name="s", instructions=10_000,
            **l2_columns([(150, L2_LOAD, i * 0x10000) for i in range(64)]),
        )
        clustered_result = simulate(clustered, l2_cache(processor), processor)
        spread_result = simulate(spread, l2_cache(processor), processor)
        assert clustered_result.breakdown["load_stall"] < \
            spread_result.breakdown["load_stall"]

    def test_branch_penalty_added(self, processor):
        compiled = CompiledWorkload(
            name="b", instructions=1000, tail_instructions=1000,
            branch_mispredicts=10, btb_misses=5,
        )
        result = simulate(compiled, l2_cache(processor), processor)
        expected = (
            1000 / processor.base_ipc
            + 10 * processor.mispredict_penalty
            + 5 * processor.btb_miss_penalty
        )
        assert result.cycles == pytest.approx(expected)
        assert result.breakdown["branch"] == pytest.approx(
            10 * processor.mispredict_penalty + 5 * processor.btb_miss_penalty
        )

    def test_metrics(self, processor):
        compiled = CompiledWorkload(
            name="m", instructions=2000,
            **l2_columns([(10, L2_LOAD, i * 0x10000) for i in range(10)]),
        )
        result = simulate(compiled, l2_cache(processor), processor)
        assert result.mpki == pytest.approx(1000.0 * 10 / 2000)
        assert result.l2_accesses == 10
        assert result.cpi == result.cycles / 2000


class TestEndToEnd:
    def test_compile_and_simulate_suite_workload(self, processor):
        from repro.workloads.suite import build_workload

        trace = build_workload("lucas", processor.l2, accesses=5000)
        compiled = compile_workload(trace, processor)
        result = simulate(compiled, l2_cache(processor), processor)
        assert result.instructions == trace.instruction_count
        assert result.cycles > 0
        assert 0 < result.cpi < 50

    def test_deterministic(self, processor):
        from repro.workloads.suite import build_workload

        trace = build_workload("mcf", processor.l2, accesses=3000)

        def run():
            compiled = compile_workload(trace, processor)
            return simulate(compiled, l2_cache(processor), processor).cycles

        assert run() == run()
