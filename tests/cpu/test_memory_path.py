"""The timing model as the one model of the memory path.

Table 1's memory system (an L1D over a unified L2 over a bus and
memory) is modeled by :func:`compile_workload` (the L1D filter) and
:func:`simulate` (the L2 replay plus ``ProcessorConfig.miss_penalty``).
These tests pin that path against a straight-line reference walk, one
reference at a time through two plain caches, and pin the latency and
write-back arithmetic the walk implies.
"""

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
from repro.experiments.base import build_l2_policy
from repro.perf.kernel import kernel_name
from repro.policies.lru import LRUPolicy
from repro.utils.rng import DeterministicRNG
from repro.workloads.trace import (
    KIND_BRANCH_NOT_TAKEN,
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    KIND_STORE,
    Trace,
)
from tests.cpu import l2_columns, l2_events

POLICY_KINDS = ["lru", "fifo", "lfu", "mru", "random", "srrip", "bip",
                "adaptive", "adaptive5", "sbar"]


def processor_with(l1_ways, line_bytes=64):
    l1 = CacheConfig(size_bytes=16 * line_bytes * l1_ways, ways=l1_ways,
                     line_bytes=line_bytes, hit_latency=2)
    l2 = CacheConfig(size_bytes=64 * line_bytes * 8, ways=8,
                     line_bytes=line_bytes, hit_latency=15)
    return ProcessorConfig(l1d=l1, l1i=l1, l2=l2)


def lru_cache(config):
    return SetAssociativeCache(config, LRUPolicy(config.num_sets, config.ways))


def mixed_trace(line_bytes, records=3000, seed=7):
    """Loads, stores and branches over a footprint a few L2s wide."""
    rng = DeterministicRNG(seed)
    lines = 64 * 8 * 3
    out = []
    line = 0
    for _ in range(records):
        draw = rng.random()
        gap = rng.randint(0, 6)
        if draw < 0.15:
            kind = KIND_BRANCH_TAKEN if rng.random() < 0.6 else \
                KIND_BRANCH_NOT_TAKEN
            out.append((kind, 0x400000 + 4 * rng.randint(0, 64), gap))
            continue
        if rng.random() < 0.5:
            line = (line + 1) % lines
        else:
            line = rng.randint(0, lines - 1)
        kind = KIND_STORE if draw < 0.45 else KIND_LOAD
        offset = rng.randint(0, line_bytes - 1)
        out.append((kind, line * line_bytes + offset, gap))
    return Trace.from_records("mixed", out)


def reference_walk(trace, l1, l2):
    """Every memory reference walked through the L1 and then the L2.

    Mirrors the model: an L1 miss sends the demand reference (a store
    fill for stores) to the L2, then the L1's dirty victim as a write;
    L1 hits, branches and writebacks never reach the L2 as instructions.
    Returns the L2-visible records and the L2 hit count.
    """
    records = []
    l2_hits = 0
    pending = 0
    for kind, address, gap in trace:
        pending += gap
        if kind >= KIND_BRANCH_TAKEN:
            pending += 1
            continue
        result = l1.access(address, is_write=kind == KIND_STORE)
        if result.hit:
            pending += 1
            continue
        l2_kind = L2_STORE if kind == KIND_STORE else L2_LOAD
        records.append((pending, l2_kind, address))
        pending = 0
        l2_hits += l2.access(address, is_write=l2_kind != L2_LOAD).hit
        if result.writeback:
            victim = l1.config.rebuild_address(result.evicted_tag,
                                               result.set_index)
            records.append((0, L2_WRITEBACK, victim))
            l2_hits += l2.access(victim, is_write=True).hit
    return records, l2_hits, pending


def snapshot(cache):
    stats = cache.stats
    return {
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "per_set_misses": list(stats.per_set_misses),
        "tags": [sorted(s._tag_to_way.items()) for s in cache.sets],
        "dirty": [list(s._dirty) for s in cache.sets],
    }


@pytest.mark.parametrize("l1_ways", [1, 4], ids=["l1-direct", "l1-4way"])
@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_model_matches_reference_walk(kind, l1_ways):
    """The compiled stream, the L2 outcome counts and the final L2 state
    equal a reference-at-a-time walk, for every L2 policy kind (the
    two-component adaptive one through the columnar batch kernel)."""
    processor = processor_with(l1_ways)
    trace = mixed_trace(processor.l2.line_bytes)

    compiled = compile_workload(trace, processor)
    model_l2 = SetAssociativeCache(processor.l2,
                                   build_l2_policy(processor.l2, kind))
    if kind == "adaptive":
        assert kernel_name(model_l2, len(compiled.l2_kinds)) == "columnar"
    result = simulate(compiled, model_l2, processor)

    ref_l1 = lru_cache(processor.l1d)
    ref_l2 = SetAssociativeCache(processor.l2,
                                 build_l2_policy(processor.l2, kind))
    records, l2_hits, tail = reference_walk(trace, ref_l1, ref_l2)

    assert l2_events(compiled) == records
    assert compiled.tail_instructions == tail
    assert compiled.l1_hits == ref_l1.stats.hits
    assert compiled.l1_misses == ref_l1.stats.misses
    assert result.l2_accesses == len(records)
    assert result.l2_misses == len(records) - l2_hits
    assert snapshot(model_l2) == snapshot(ref_l2)
    # The walk exercised both halves of the write path.
    assert any(r[1] == L2_WRITEBACK for r in records)
    assert ref_l2.stats.writebacks > 0


class TestLatencies:
    @pytest.fixture
    def processor(self):
        return processor_with(4)

    def test_cold_load_pays_l2_latency_and_miss_penalty(self, processor):
        compiled = CompiledWorkload(
            name="cold", instructions=1,
            **l2_columns([(0, L2_LOAD, 0x10000)]),
        )
        result = simulate(compiled, lru_cache(processor.l2), processor)
        # The load issues, then the run ends waiting out its miss.
        expected = processor.l2.hit_latency + processor.miss_penalty
        assert result.breakdown["load_stall"] == pytest.approx(expected)
        assert result.cycles == pytest.approx(1 / processor.base_ipc + expected)
        assert result.l2_misses == 1

    def test_l2_hit_after_l1_eviction(self, processor):
        l1 = processor.l1d
        first = l1.rebuild_address(1, 0)
        records = [(KIND_LOAD, first, 0)]
        records += [(KIND_LOAD, l1.rebuild_address(tag, 0), 0)
                    for tag in range(2, 2 + l1.ways)]
        records.append((KIND_LOAD, first, 0))
        compiled = compile_workload(Trace.from_records("t", records), processor)
        # The L1 set overflowed, so the re-reference reaches the L2 ...
        assert l2_events(compiled)[-1][2] == first
        l2 = lru_cache(processor.l2)
        result = simulate(compiled, l2, processor)
        # ... where the line is still resident.
        assert result.l2_accesses == l1.ways + 2
        assert result.l2_misses == l1.ways + 1

    def test_l1_hit_never_reaches_l2(self, processor):
        trace = Trace.from_records("t", [(KIND_STORE, 0x2000, 0), (KIND_LOAD, 0x2008, 0)])
        compiled = compile_workload(trace, processor)
        assert l2_events(compiled) == [(0, L2_STORE, 0x2000)]
        assert compiled.l1_hits == 1

    def test_l2_dirty_eviction_counts_writeback(self, processor):
        config = processor.l2
        dirty = config.rebuild_address(1, 0)
        records = [(0, L2_STORE, dirty)]
        records += [(0, L2_LOAD, config.rebuild_address(tag, 0))
                    for tag in range(2, 2 + config.ways)]
        compiled = CompiledWorkload(name="wb", instructions=len(records),
                                    **l2_columns(records))
        l2 = lru_cache(config)
        simulate(compiled, l2, processor)
        assert l2.stats.evictions == 1
        assert l2.stats.writebacks == 1
        assert not l2.contains(dirty)

    def test_l2_clean_eviction_no_writeback(self, processor):
        config = processor.l2
        records = [(0, L2_LOAD, config.rebuild_address(tag, 0))
                   for tag in range(1, 2 + config.ways)]
        compiled = CompiledWorkload(name="clean", instructions=len(records),
                                    **l2_columns(records))
        l2 = lru_cache(config)
        simulate(compiled, l2, processor)
        assert l2.stats.evictions == 1
        assert l2.stats.writebacks == 0


@pytest.mark.parametrize(
    "line_bytes, bus_bytes, bus_ratio, transfer",
    [
        (64, 8, 8, 64),     # Table 1
        (64, 16, 4, 16),
        (32, 8, 8, 32),
        (64, 48, 2, 4),     # a partial last beat costs a full beat
        (128, 8, 1, 16),
        (64, 64, 3, 3),
    ],
)
def test_miss_penalty_is_memory_plus_bus(line_bytes, bus_bytes, bus_ratio,
                                         transfer):
    processor = processor_with(4, line_bytes=line_bytes).scaled(
        memory_latency=100, bus_bytes=bus_bytes, bus_ratio=bus_ratio,
    )
    assert processor.bus_transfer_cycles == transfer
    assert processor.miss_penalty == 100 + transfer


@pytest.mark.parametrize("line_bytes", [32, 64, 128])
def test_matching_line_sizes_accepted(line_bytes):
    """Equal L1/L2 lines: an L1 writeback names the evicted L2 line."""
    processor = processor_with(2, line_bytes=line_bytes)
    l1 = processor.l1d
    dirty = l1.rebuild_address(1, 3)
    records = [(KIND_STORE, dirty + line_bytes - 1, 0)]
    records += [(KIND_LOAD, l1.rebuild_address(tag, 3), 0)
                for tag in range(2, 2 + l1.ways)]
    compiled = compile_workload(Trace.from_records("t", records), processor)
    writebacks = [r for r in l2_events(compiled) if r[1] == L2_WRITEBACK]
    assert [r[2] for r in writebacks] == [dirty]
    l2 = lru_cache(processor.l2)
    simulate(compiled, l2, processor)
    config = processor.l2
    cache_set = l2.sets[config.set_index(dirty)]
    way = cache_set.find(config.tag(dirty))
    assert way is not None and cache_set.state_dict()["dirty"][way]
