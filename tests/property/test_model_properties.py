"""Property-based tests for the processor models and the skewed cache."""

from hypothesis import given, settings

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.skewed import SkewedAssociativeCache
from repro.cpu.config import ProcessorConfig
from repro.cpu.scoreboard import scoreboard_simulate
from repro.cpu.timing import compile_workload, simulate
from repro.policies.lru import LRUPolicy
from repro.workloads.trace import KIND_STORE, Trace
from tests import strategies

L1 = CacheConfig(size_bytes=1024, ways=4, line_bytes=64, hit_latency=2)
L2 = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64, hit_latency=15)
PROCESSOR = ProcessorConfig(l1d=L1, l1i=L1, l2=L2)

records = strategies.trace_records(max_block=300, max_gap=20, max_size=250)


def make_trace(raw):
    return Trace.from_records(
        "prop",
        [
            (kind, (block << 6) if kind <= KIND_STORE else 0x400000 + block * 4,
             gap)
            for kind, block, gap in raw
        ],
    )


def l2_cache():
    return SetAssociativeCache(L2, LRUPolicy(L2.num_sets, L2.ways))


class TestModelSanity:
    @given(raw=records)
    @settings(max_examples=30, deadline=None)
    def test_aggregate_model_bounds(self, raw):
        trace = make_trace(raw)
        compiled = compile_workload(trace, PROCESSOR)
        result = simulate(compiled, l2_cache(), PROCESSOR)
        # CPI floor: issue bandwidth; ceiling: every instruction a
        # serialized full miss plus the worst branch penalty.
        floor = trace.instruction_count / PROCESSOR.base_ipc
        assert result.cycles >= floor - 1e-9 * max(1.0, floor)
        worst = (
            PROCESSOR.l2.hit_latency + PROCESSOR.miss_penalty
            + PROCESSOR.mispredict_penalty + 1
        )
        assert result.cycles <= trace.instruction_count * worst + worst

    @given(raw=records)
    @settings(max_examples=30, deadline=None)
    def test_scoreboard_bounds(self, raw):
        trace = make_trace(raw)
        result = scoreboard_simulate(trace, l2_cache(), PROCESSOR)
        assert result.cycles >= trace.instruction_count / PROCESSOR.issue_width
        worst = (
            PROCESSOR.l2.hit_latency + PROCESSOR.miss_penalty
            + PROCESSOR.mispredict_penalty + 2
        )
        assert result.cycles <= trace.instruction_count * worst + worst

    @given(raw=records)
    @settings(max_examples=20, deadline=None)
    def test_models_agree_on_miss_counts(self, raw):
        """Both models drive the same L1+L2 structures, so the L2 miss
        count — the quantity every conclusion flows from — must agree
        exactly."""
        trace = make_trace(raw)
        compiled = compile_workload(trace, PROCESSOR)
        aggregate = simulate(compiled, l2_cache(), PROCESSOR)
        scoreboard = scoreboard_simulate(trace, l2_cache(), PROCESSOR)
        assert aggregate.l2_misses == scoreboard.l2_misses
        assert aggregate.l2_accesses == scoreboard.l2_accesses


class TestSkewedProperties:
    blocks = strategies.block_streams(max_block=400, max_size=400)

    @given(blocks=blocks)
    @settings(max_examples=40, deadline=None)
    def test_structure(self, blocks):
        cache = SkewedAssociativeCache(L2)
        for block in blocks:
            cache.access(block << 6)
        stats = cache.stats
        assert stats.hits + stats.misses == len(blocks)
        resident = sum(block is not None
                       for bank in cache._blocks for block in bank)
        assert resident <= L2.num_lines
        assert resident <= len(set(blocks))

    @given(blocks=blocks)
    @settings(max_examples=30, deadline=None)
    def test_immediate_rereference_hits(self, blocks):
        cache = SkewedAssociativeCache(L2)
        for block in blocks:
            cache.access(block << 6)
            assert cache.access(block << 6).hit

    @given(blocks=blocks)
    @settings(max_examples=20, deadline=None)
    def test_evictions_were_resident(self, blocks):
        cache = SkewedAssociativeCache(L2)
        resident = set()
        for block in blocks:
            result = cache.access(block << 6)
            if result.evicted_block is not None:
                assert result.evicted_block in resident
                resident.discard(result.evicted_block)
            resident.add(block)
