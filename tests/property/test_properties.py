"""Property-based tests (hypothesis) for the core invariants.

These correspond to the invariant list in DESIGN.md Section 6: whatever
the access sequence, the structural guarantees of the caches, policies,
history buffers and the adaptive scheme must hold.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.tag_array import TagArray
from repro.core.history import BitVectorHistory, CounterHistory
from repro.core.multi import make_adaptive
from repro.core.partial import PartialTagScheme
from repro.core.theory import check_miss_bound
from repro.policies.belady import belady_misses
from repro.policies.registry import make_policy
from repro.utils.bitops import xor_fold
from tests import strategies

CONFIG = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64)  # 8 sets

block_streams = strategies.block_streams(max_block=200, max_size=400)

policy_names = strategies.policy_names()


def run_blocks(cache, blocks):
    for block in blocks:
        cache.access(block << CONFIG.offset_bits)


class TestCacheInvariants:
    @given(blocks=block_streams, name=policy_names)
    @settings(max_examples=40, deadline=None)
    def test_structure_preserved(self, blocks, name):
        cache = SetAssociativeCache(
            CONFIG, make_policy(name, CONFIG.num_sets, CONFIG.ways)
        )
        run_blocks(cache, blocks)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(blocks)
        assert sum(stats.per_set_misses) == stats.misses
        referenced_tags = {CONFIG.tag(b << CONFIG.offset_bits) for b in blocks}
        for cache_set in cache.sets:
            assert cache_set.occupancy() <= CONFIG.ways
            for tag in cache_set.resident_tags():
                assert tag in referenced_tags

    @given(blocks=block_streams, name=policy_names)
    @settings(max_examples=25, deadline=None)
    def test_immediate_rereference_hits(self, blocks, name):
        cache = SetAssociativeCache(
            CONFIG, make_policy(name, CONFIG.num_sets, CONFIG.ways)
        )
        for block in blocks:
            cache.access(block << CONFIG.offset_bits)
            assert cache.access(block << CONFIG.offset_bits).hit


class TestLRUStack:
    @given(blocks=block_streams)
    @settings(max_examples=30, deadline=None)
    def test_inclusion(self, blocks):
        """LRU hits never decrease when associativity grows (same sets)."""
        hits = []
        for ways in (2, 4):
            config = CacheConfig(
                size_bytes=8 * 64 * ways, ways=ways, line_bytes=64
            )
            cache = SetAssociativeCache(
                config, make_policy("lru", config.num_sets, config.ways)
            )
            for block in blocks:
                cache.access(block << config.offset_bits)
            hits.append(cache.stats.hits)
        assert hits[0] <= hits[1]


class TestOptLowerBound:
    @given(blocks=block_streams, name=policy_names)
    @settings(max_examples=30, deadline=None)
    def test_opt_minimal(self, blocks, name):
        opt = belady_misses(blocks, CONFIG.num_sets, CONFIG.ways)
        cache = SetAssociativeCache(
            CONFIG, make_policy(name, CONFIG.num_sets, CONFIG.ways)
        )
        run_blocks(cache, blocks)
        assert opt <= cache.stats.misses


class TestAdaptiveBound:
    @given(blocks=block_streams)
    @settings(max_examples=25, deadline=None)
    def test_two_x_bound_lru_lfu(self, blocks):
        """Appendix bound: adaptive (counter selector) <= 2x best
        component per set, plus warm-up slack."""
        report = check_miss_bound(blocks, CONFIG)
        assert report.holds(), report.violations()

    @given(blocks=block_streams)
    @settings(max_examples=15, deadline=None)
    def test_two_x_bound_fifo_mru(self, blocks):
        report = check_miss_bound(blocks, CONFIG,
                                  component_names=("fifo", "mru"))
        assert report.holds(), report.violations()

    @given(blocks=block_streams, name=policy_names)
    @settings(max_examples=25, deadline=None)
    def test_identical_components_equal_component(self, blocks, name):
        """Adapting over two copies of any policy is that policy."""
        if name == "random":
            return  # two seeded RNG instances diverge by construction
        adaptive_cache = SetAssociativeCache(
            CONFIG, make_adaptive(CONFIG.num_sets, CONFIG.ways, (name, name))
        )
        plain_cache = SetAssociativeCache(
            CONFIG, make_policy(name, CONFIG.num_sets, CONFIG.ways)
        )
        run_blocks(adaptive_cache, blocks)
        run_blocks(plain_cache, blocks)
        assert adaptive_cache.stats.misses == plain_cache.stats.misses


class TestShadowEquivalence:
    @given(blocks=block_streams, name=policy_names)
    @settings(max_examples=25, deadline=None)
    def test_full_tag_shadow_equals_real_cache(self, blocks, name):
        if name == "random":
            return  # separate RNG streams; equivalence is not expected
        real = SetAssociativeCache(
            CONFIG, make_policy(name, CONFIG.num_sets, CONFIG.ways)
        )
        shadow = TagArray(
            CONFIG.num_sets, CONFIG.ways,
            make_policy(name, CONFIG.num_sets, CONFIG.ways),
        )
        for block in blocks:
            address = block << CONFIG.offset_bits
            result = real.access(address)
            outcome = shadow.lookup_stored(
                CONFIG.set_index(address), CONFIG.tag(address), False
            )
            assert result.hit == (not outcome.missed)
        for set_index in range(CONFIG.num_sets):
            assert sorted(shadow.resident_tags(set_index)) == sorted(
                real.sets[set_index].resident_tags()
            )


class TestPartialTagProperties:
    @given(blocks=block_streams,
           bits=st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_partial_never_misses_more(self, blocks, bits):
        """Aliasing only turns misses into (false) hits."""
        full = TagArray(
            CONFIG.num_sets, CONFIG.ways,
            make_policy("lru", CONFIG.num_sets, CONFIG.ways),
        )
        partial = TagArray(
            CONFIG.num_sets, CONFIG.ways,
            make_policy("lru", CONFIG.num_sets, CONFIG.ways),
            tag_transform=PartialTagScheme(bits),
        )
        for block in blocks:
            address = block << CONFIG.offset_bits
            set_index = CONFIG.set_index(address)
            tag = CONFIG.tag(address)
            full.lookup_stored(set_index, tag, False)
            partial.lookup_stored(set_index, partial.tag_transform(tag), False)
        assert partial.misses <= full.misses

    @given(tag=st.integers(min_value=0, max_value=(1 << 40) - 1),
           bits=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_transforms_fit_width(self, tag, bits):
        assert 0 <= xor_fold(tag, bits) < (1 << bits)
        assert 0 <= PartialTagScheme(bits)(tag) < (1 << bits)
        assert 0 <= PartialTagScheme(bits, "xor")(tag) < (1 << bits)

    @given(blocks=block_streams,
           bits=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_adaptive_with_partial_tags_stays_sound(self, blocks, bits):
        """Whatever the aliasing, the adaptive cache keeps its
        structural invariants and evicts only resident blocks."""
        cache = SetAssociativeCache(
            CONFIG,
            make_adaptive(CONFIG.num_sets, CONFIG.ways,
                          tag_transform=PartialTagScheme(bits)),
        )
        resident = set()
        for block in blocks:
            address = block << CONFIG.offset_bits
            key = (CONFIG.set_index(address), CONFIG.tag(address))
            result = cache.access(address)
            if result.evicted_tag is not None:
                assert (result.set_index, result.evicted_tag) in resident
                resident.discard((result.set_index, result.evicted_tag))
            resident.add(key)


class TestHistoryProperties:
    events = strategies.history_events(components=2, max_size=200)

    @given(events=events, window=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_bitvector_window_consistency(self, events, window):
        history = BitVectorHistory(2, window=window)
        recorded = []
        for event in events:
            if history.record(event):
                recorded.append(event)
                recorded = recorded[-window:]
        assert len(history.state_dict()["events"]) == len(recorded)
        for component in (0, 1):
            expected = sum(1 for e in recorded if e[component])
            assert history.misses(component) == expected

    @given(events=events)
    @settings(max_examples=50, deadline=None)
    def test_counter_totals(self, events):
        history = CounterHistory(2)
        for event in events:
            history.record(event)
        decisive = [e for e in events if any(e) and not all(e)]
        assert history.misses(0) == sum(1 for e in decisive if e[0])
        assert history.misses(1) == sum(1 for e in decisive if e[1])
        best = history.best_component()
        assert history.misses(best) == min(history.misses(0),
                                           history.misses(1))


class TestStoreBufferProperties:
    pushes = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),  # inter-arrival
            st.floats(min_value=0.0, max_value=100.0),  # latency
        ),
        min_size=1,
        max_size=100,
    )

    @given(pushes=pushes, capacity=st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded_and_time_monotonic(self, pushes, capacity):
        from repro.cpu.store_buffer import StoreBuffer

        buffer = StoreBuffer(capacity)
        now = 0.0
        for gap, latency in pushes:
            now += gap
            resumed = buffer.push(now, latency)
            assert resumed >= now
            now = resumed
            assert buffer.occupancy(now) <= capacity

    @given(pushes=pushes)
    @settings(max_examples=30, deadline=None)
    def test_bigger_buffer_never_stalls_more(self, pushes):
        from repro.cpu.store_buffer import StoreBuffer

        def total_stall(capacity):
            buffer = StoreBuffer(capacity)
            now = 0.0
            for gap, latency in pushes:
                now += gap
                now = buffer.push(now, latency)
            return buffer.stall_cycles

        assert total_stall(8) <= total_stall(2) + 1e-9


class TestBuilderProperties:
    @given(
        stream=st.lists(st.integers(min_value=0, max_value=1000),
                        min_size=1, max_size=300),
        seed=st.integers(min_value=0, max_value=1000),
        write_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_accounting(self, stream, seed, write_fraction):
        from repro.workloads.builder import WorkloadBuilder

        builder = WorkloadBuilder(seed=seed, write_fraction=write_fraction)
        trace = builder.build("t", stream)
        assert trace.memory_access_count() == len(stream)
        assert trace.instruction_count == (
            sum(r[2] for r in trace) + len(trace)
        )
        assert all(r[2] >= 0 for r in trace)
