"""Closed-form validation of the timing model.

For simple synthetic streams the model's cycle count has an exact
analytic value; these tests pin the implementation to it. Any drift in
the accounting (double-charged gaps, off-by-one instruction counts,
mis-capped overlap) breaks an equality here rather than a fuzzy
integration threshold.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cpu.config import ProcessorConfig
from repro.cpu.timing import L2_LOAD, CompiledWorkload, simulate
from repro.policies.lru import LRUPolicy
from tests.cpu import l2_columns


@pytest.fixture
def processor():
    l1 = CacheConfig(size_bytes=1024, ways=4, line_bytes=64, hit_latency=2)
    l2 = CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64,
                     hit_latency=15)
    return ProcessorConfig(l1d=l1, l1i=l1, l2=l2, base_ipc=2.0)


def l2_cache(processor):
    config = processor.l2
    return SetAssociativeCache(config, LRUPolicy(config.num_sets, config.ways))


class TestClosedForms:
    def test_pure_compute(self, processor):
        """No memory events: cycles = instructions / ipc exactly."""
        compiled = CompiledWorkload(name="c", instructions=4000,
                                    tail_instructions=4000)
        result = simulate(compiled, l2_cache(processor), processor)
        assert result.cycles == pytest.approx(4000 / 2.0)

    def test_single_isolated_miss(self, processor):
        """One load miss with a huge gap after it: the core runs
        rob_entries instructions past the miss, then stalls for the
        remaining latency. Total = issue time + hidden-adjusted stall."""
        gap_before = 100
        gap_after = 10_000
        compiled = CompiledWorkload(
            name="m",
            instructions=gap_before + 1 + gap_after,
            **l2_columns([(gap_before, L2_LOAD, 0x100000)]),
            tail_instructions=gap_after,
        )
        proc = processor
        result = simulate(compiled, l2_cache(proc), proc)
        miss_latency = proc.l2.hit_latency + proc.miss_penalty
        issue_cycles = (gap_before + 1 + gap_after) / proc.base_ipc
        hidden = proc.rob_entries / proc.base_ipc  # run-ahead window
        expected_stall = miss_latency - hidden
        assert result.cycles == pytest.approx(issue_cycles + expected_stall)
        assert result.breakdown["load_stall"] == pytest.approx(expected_stall)

    def test_fully_overlapped_miss_pair(self, processor):
        """Two misses issued back-to-back overlap completely: total
        stall equals one (run-ahead-adjusted) miss latency, not two."""
        big_tail = 10_000
        compiled = CompiledWorkload(
            name="pair",
            instructions=2 + big_tail,
            **l2_columns([(0, L2_LOAD, 0x100000), (0, L2_LOAD, 0x200000)]),
            tail_instructions=big_tail,
        )
        proc = processor
        result = simulate(compiled, l2_cache(proc), proc)
        miss_latency = proc.l2.hit_latency + proc.miss_penalty
        # The second miss issues one issue-slot after the first; both
        # resolve while the core is still within its run-ahead budget,
        # so the extra stall vs a single miss is just that issue slot.
        single = CompiledWorkload(
            name="single",
            instructions=1 + big_tail,
            **l2_columns([(0, L2_LOAD, 0x100000)]),
            tail_instructions=big_tail,
        )
        single_result = simulate(single, l2_cache(proc), proc)
        extra = result.breakdown["load_stall"] - \
            single_result.breakdown["load_stall"]
        assert extra == pytest.approx(1 / proc.base_ipc, abs=1.0)
        assert result.breakdown["load_stall"] < 1.2 * miss_latency

    def test_serial_distant_misses_add_up(self, processor):
        """Misses separated by more instructions than the ROB window
        cannot overlap: each pays the full adjusted latency."""
        n = 10
        spacing = 2000  # >> rob_entries
        compiled = CompiledWorkload(
            name="serial",
            instructions=n * (spacing + 1),
            **l2_columns([(spacing, L2_LOAD, (i + 1) * 0x100000)
                          for i in range(n)]),
        )
        proc = processor
        result = simulate(compiled, l2_cache(proc), proc)
        miss_latency = proc.l2.hit_latency + proc.miss_penalty
        hidden = proc.rob_entries / proc.base_ipc
        # The final miss has no instructions after it, so nothing hides
        # any of its latency; the other n-1 get the run-ahead credit.
        expected = (n - 1) * (miss_latency - hidden) + miss_latency
        assert result.breakdown["load_stall"] == pytest.approx(expected)

    def test_l2_hit_charges_fixed_fraction(self, processor):
        """An L2 hit (L1 miss) costs hit_latency * l2_hit_stall_factor.

        The cold miss is isolated by a long gap so its stall takes the
        clean run-ahead form; the 19 re-references then each add
        exactly one hit charge.
        """
        compiled = CompiledWorkload(
            name="hits",
            instructions=20 + 6000,
            **l2_columns([(0, L2_LOAD, 0x100000)]
                         + [(300, L2_LOAD, 0x100000)] * 19),
            tail_instructions=300,
        )
        proc = processor
        result = simulate(compiled, l2_cache(proc), proc)
        hit_charge = proc.l2.hit_latency * proc.l2_hit_stall_factor
        miss_latency = proc.l2.hit_latency + proc.miss_penalty
        hidden = proc.rob_entries / proc.base_ipc
        expected = (miss_latency - hidden) + 19 * hit_charge
        assert result.breakdown["load_stall"] == pytest.approx(expected)

    def test_branch_lump_sum_exact(self, processor):
        compiled = CompiledWorkload(
            name="b", instructions=100, tail_instructions=100,
            branch_mispredicts=7, btb_misses=3,
        )
        result = simulate(compiled, l2_cache(processor), processor)
        assert result.breakdown["branch"] == pytest.approx(
            7 * processor.mispredict_penalty + 3 * processor.btb_miss_penalty
        )
