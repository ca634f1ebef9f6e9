"""Unit tests for the scoreboard reference model."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cpu.config import ProcessorConfig
from repro.cpu.scoreboard import scoreboard_simulate
from repro.policies.lru import LRUPolicy
from repro.workloads.trace import (
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    KIND_STORE,
    Trace,
)


@pytest.fixture
def processor():
    l1 = CacheConfig(size_bytes=1024, ways=4, line_bytes=64, hit_latency=2)
    l2 = CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64,
                     hit_latency=15)
    return ProcessorConfig(l1d=l1, l1i=l1, l2=l2, base_ipc=2.0)


def l2_cache(processor):
    config = processor.l2
    return SetAssociativeCache(config, LRUPolicy(config.num_sets, config.ways))


class TestScoreboardBasics:
    def test_pure_alu_ipc_bounded_by_width(self, processor):
        trace = Trace.from_records("alu", [(KIND_LOAD, 0x1000, 999)])
        result = scoreboard_simulate(trace, l2_cache(processor), processor)
        # 1000 instructions through an 8-wide machine: >= 125 cycles.
        assert result.cycles >= 1000 / processor.issue_width
        assert result.cpi < 1.0  # mostly single-cycle ALU ops

    def test_misses_cost_more_than_hits(self, processor):
        hits = Trace.from_records("h", [(KIND_LOAD, 0x1000, 20)] * 50)
        misses = Trace.from_records(
            "m", [(KIND_LOAD, 0x1000 + i * 0x10000, 20) for i in range(50)]
        )
        hit_result = scoreboard_simulate(hits, l2_cache(processor), processor)
        miss_result = scoreboard_simulate(misses, l2_cache(processor),
                                          processor)
        assert miss_result.cycles > hit_result.cycles
        assert miss_result.l2_misses > hit_result.l2_misses

    def test_rob_limits_runahead(self, processor):
        """A single isolated miss: total time is bounded below by the
        miss latency (the ROB cannot slide past it indefinitely)."""
        trace = Trace.from_records("iso", [(KIND_LOAD, 0x100000, 0)] +
                      [(KIND_LOAD, 0x100000, 200)])
        result = scoreboard_simulate(trace, l2_cache(processor), processor)
        miss_latency = (processor.l1d.hit_latency + processor.l2.hit_latency
                        + processor.miss_penalty)
        assert result.cycles >= miss_latency

    def test_mispredicts_stall_fetch(self, processor):
        import random

        rng = random.Random(3)
        predictable = Trace.from_records(
            "p", [(KIND_BRANCH_TAKEN, 0x400000, 5)] * 200
        )
        random_branches = Trace.from_records(
            "r",
            [
                (KIND_BRANCH_TAKEN if rng.random() < 0.5 else 3,
                 0x400000 + (rng.randrange(64) << 2), 5)
                for _ in range(200)
            ],
        )
        easy = scoreboard_simulate(predictable, l2_cache(processor),
                                   processor)
        hard = scoreboard_simulate(random_branches, l2_cache(processor),
                                   processor)
        assert hard.cycles > easy.cycles

    def test_store_buffer_backpressure(self, processor):
        stores = Trace.from_records(
            "s", [(KIND_STORE, i * 0x10000, 2) for i in range(100)]
        )
        small = scoreboard_simulate(
            stores, l2_cache(processor),
            processor.scaled(store_buffer_entries=1),
        )
        large = scoreboard_simulate(
            stores, l2_cache(processor),
            processor.scaled(store_buffer_entries=256),
        )
        assert small.cycles > large.cycles

    def test_deterministic(self, processor):
        from repro.workloads.suite import build_workload

        trace = build_workload("mcf", processor.l2, accesses=2000)

        def run():
            return scoreboard_simulate(
                trace, l2_cache(processor), processor
            ).cycles

        assert run() == run()


class TestCrossModelAgreement:
    def test_policy_ordering_agrees_with_aggregate_model(self, processor):
        """The two models must agree which policy wins per workload."""
        from repro.cpu.timing import compile_workload, simulate
        from repro.experiments.base import build_l2_policy
        from repro.workloads.suite import build_workload

        for name in ("lucas", "art-1"):
            trace = build_workload(name, processor.l2, accesses=4000)
            compiled = compile_workload(trace, processor)
            deltas = {}
            for model in ("aggregate", "scoreboard"):
                cpis = {}
                for kind in ("lru", "lfu"):
                    l2 = SetAssociativeCache(
                        processor.l2, build_l2_policy(processor.l2, kind)
                    )
                    if model == "aggregate":
                        cpis[kind] = simulate(compiled, l2, processor).cpi
                    else:
                        cpis[kind] = scoreboard_simulate(
                            trace, l2, processor
                        ).cpi
                deltas[model] = cpis["lru"] - cpis["lfu"]
            assert (deltas["aggregate"] > 0) == (deltas["scoreboard"] > 0), \
                name
