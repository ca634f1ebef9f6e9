"""The columnar kernel's decision-identity contract, property-tested.

The contract (see :mod:`repro.perf.kernel`): for every supported duel
pair, the columnar kernel must leave a cache byte-identical
to the scalar per-access loop — CacheStats, per-set misses, the full
policy ``state_dict()``, resident set contents — and report the same
per-access hit stream. Hypothesis drives random streams (including
write mixes and adversarial phase-change patterns that saturate and
flip selector windows) at every duel pair; deterministic tests pin the
envelope checks and the batch-size dispatch rule.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.history import BitVectorHistory, CounterHistory
from repro.core.multi import five_policy_adaptive, make_adaptive
from repro.core.partial import PartialTagScheme
from repro.core.selector import PolicySelector
from repro.perf.kernel import (
    AUTO_MIN_BATCH,
    columnar_access_many,
    columnar_hit_stream,
    kernel_name,
    kernel_plan,
    maybe_columnar,
)
from repro.policies.registry import make_policy

KERNEL_KINDS = ("lru", "fifo", "lfu", "mru")
ALL_PAIRS = tuple(product(KERNEL_KINDS, KERNEL_KINDS))


def build_cache(components=("lru", "lfu"), num_sets=4, ways=4, **kwargs):
    config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways)
    policy = make_adaptive(num_sets, ways, tuple(components), **kwargs)
    return SetAssociativeCache(config, policy)


def observable_state(cache):
    stats = cache.stats
    return {
        "stats": (stats.accesses, stats.hits, stats.misses,
                  stats.evictions, stats.writebacks,
                  tuple(stats.per_set_misses)),
        "policy": cache.policy.state_dict(),
        "sets": [cache_set.state_dict() for cache_set in cache.sets],
    }


def to_addresses(events, config):
    offset_bits, _, tag_shift = config.decomposition()
    addresses = [
        (tag << tag_shift) | (set_index << offset_bits)
        for set_index, tag, _ in events
    ]
    writes = [write for _, _, write in events]
    return addresses, writes


def assert_equivalent(components, events, num_sets=4, ways=4,
                      use_writes=True):
    """Scalar access loop vs columnar batch: everything must match."""
    scalar = build_cache(components, num_sets, ways)
    columnar = build_cache(components, num_sets, ways)
    addresses, writes = to_addresses(events, scalar.config)
    if not use_writes:
        writes = None
    scalar_hits = [
        scalar.access(address, is_write=bool(writes and writes[i])).hit
        for i, address in enumerate(addresses)
    ]
    record = [False] * len(addresses)
    hits = columnar_access_many(
        columnar, addresses, writes=writes, record=record
    )
    assert hits == sum(scalar_hits)
    assert record == scalar_hits
    assert observable_state(columnar) == observable_state(scalar)
    return columnar


def event_streams(num_sets=4, max_tag=11, min_size=1, max_size=300):
    """(set, tag, write) streams over a hot universe (~3x capacity)."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=num_sets - 1),
            st.integers(min_value=0, max_value=max_tag),
            st.booleans(),
        ),
        min_size=min_size, max_size=max_size,
    )


class TestHypothesisEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        events=event_streams(),
        pair=st.sampled_from(ALL_PAIRS),
        use_writes=st.booleans(),
    )
    def test_random_streams_all_pairs(self, events, pair, use_writes):
        assert_equivalent(pair, events, use_writes=use_writes)

    @settings(max_examples=30, deadline=None)
    @given(
        pair=st.sampled_from(ALL_PAIRS),
        phases=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=10, max_value=120),
            ),
            min_size=2, max_size=5,
        ),
    )
    def test_phase_change_streams(self, pair, phases):
        # Alternate between a tiny hot loop (recency-friendly) and a
        # scanning sweep (frequency-friendly) so selector windows
        # saturate and then flip mid-batch — the exact pattern
        # saturation skipping must survive.
        events = []
        cursor = 0
        for phase_kind, length in phases:
            for step in range(length):
                if phase_kind == 0:
                    tag = step % 3
                else:
                    cursor += 1
                    tag = cursor % 24
                events.append((step % 4, tag, step % 5 == 0))
        assert_equivalent(pair, events)

    @settings(max_examples=20, deadline=None)
    @given(events=event_streams(num_sets=2, max_tag=7, max_size=200))
    def test_single_set_geometry(self, events):
        assert_equivalent(("lru", "mru"), events, num_sets=2, ways=4)


class TestLFUSaturation:
    @pytest.mark.parametrize(
        "pair", [pair for pair in ALL_PAIRS if "lfu" in pair], ids="+".join
    )
    def test_lfu_counters_saturate(self, pair):
        # Two hot tags per set, hit ~100 times each, run LFU's 5-bit
        # counters into saturation while a scan keeps the sets evicting.
        events = []
        for step in range(1200):
            tag = (step // 4) % 2 if step % 3 else 10 + step % 17
            events.append((step % 4, tag, step % 7 == 0))
        cache = assert_equivalent(pair, events)
        lfu = cache.policy.components[pair.index("lfu")]
        assert max(map(max, lfu._count)) == lfu._max_count


class TestDispatchEquivalence:
    def test_access_many_auto_dispatch_matches_scalar(self):
        # Through the real access_many entry point: the kernel engages
        # at AUTO_MIN_BATCH, and must match a per-call access() loop
        # byte for byte.
        from repro.oracle.streams import hardware_stream

        events = hardware_stream(11, 4, 4, AUTO_MIN_BATCH + 100)
        batched = build_cache()
        per_call = build_cache()
        addresses, writes = to_addresses(events, batched.config)
        assert kernel_name(batched, len(addresses)) == "columnar"
        batched_hits = batched.access_many(addresses, writes)
        per_call_hits = sum(
            per_call.access(address, is_write=write).hit
            for address, write in zip(addresses, writes)
        )
        assert batched_hits == per_call_hits
        assert observable_state(batched) == observable_state(per_call)

    def test_hit_stream_matches_access_many(self):
        from repro.oracle.streams import hardware_stream

        events = hardware_stream(5, 4, 4, 900)
        one = build_cache()
        two = build_cache()
        addresses, writes = to_addresses(events, one.config)
        stream = columnar_hit_stream(one, addresses, writes)
        assert isinstance(stream, bytearray)
        hits = two.access_many(addresses, writes)
        assert sum(stream) == hits
        assert observable_state(one) == observable_state(two)

    def test_hit_stream_from_typed_columns(self):
        """The timing model hands the kernel its ``array('q')`` address
        column and a numpy write mask; the per-access hit stream is the
        scalar path's, access for access."""
        from array import array

        import numpy as np

        from repro.oracle.streams import hardware_stream

        events = hardware_stream(6, 4, 4, 900)
        columnar = build_cache()
        scalar = build_cache()
        addresses, writes = to_addresses(events, columnar.config)
        stream = columnar_hit_stream(
            columnar, array("q", addresses), np.array(writes, dtype=bool)
        )
        expected = [
            scalar.access(address, is_write=write).hit
            for address, write in zip(addresses, writes)
        ]
        assert list(stream) == [int(hit) for hit in expected]
        assert observable_state(columnar) == observable_state(scalar)


class TestEnvelope:
    def test_supported_cache_has_plan(self):
        assert kernel_plan(build_cache(("fifo", "mru"))) == ("fifo", "mru")

    def test_plain_policy_rejected(self):
        config = CacheConfig(size_bytes=1024, ways=4)
        cache = SetAssociativeCache(
            config, make_policy("lru", config.num_sets, 4)
        )
        assert kernel_plan(cache) is None
        with pytest.raises(ValueError):
            columnar_access_many(cache, [0, 64, 128])

    def test_five_component_adaptive_rejected(self):
        config = CacheConfig(size_bytes=1024, ways=4)
        policy = five_policy_adaptive(config.num_sets, 4)
        assert kernel_plan(SetAssociativeCache(config, policy)) is None

    def test_partial_tags_rejected(self):
        cache = build_cache(tag_transform=PartialTagScheme(16))
        assert kernel_plan(cache) is None

    def test_random_fallback_rejected(self):
        cache = build_cache(fallback="random")
        assert kernel_plan(cache) is None

    def test_counter_history_rejected(self):
        cache = build_cache(history_factory=lambda n: CounterHistory(n))
        assert kernel_plan(cache) is None

    def test_selector_subclass_rejected(self):
        class CustomSelector(PolicySelector):
            pass

        cache = build_cache()
        cache.policy.selectors[1].__class__ = CustomSelector
        assert kernel_plan(cache) is None

    def test_unsupported_component_rejected(self):
        cache = build_cache(("lru", "random"))
        assert kernel_plan(cache) is None

    def test_fault_injector_rejected(self):
        cache = build_cache()
        cache.policy.fault_injector = object()
        assert kernel_plan(cache) is None

    def test_vote_sink_rejected(self):
        cache = build_cache()
        cache.policy.vote_sink = object()
        assert kernel_plan(cache) is None


class TestDispatchRule:
    def test_auto_threshold(self):
        cache = build_cache()
        small = [0] * (AUTO_MIN_BATCH - 1)
        assert maybe_columnar(cache, small, None) is None
        assert columnar_hit_stream(cache, small) is None
        assert kernel_name(cache, len(small)) == "scalar"
        assert kernel_name(cache, AUTO_MIN_BATCH) == "columnar"

    def test_unsupported_cache_stays_scalar(self):
        cache = build_cache(fallback="random")
        assert maybe_columnar(cache, [0] * 2000, None) is None
        assert columnar_hit_stream(cache, [0] * 2000) is None
        assert kernel_name(cache, 2000) == "scalar"

    def test_empty_batch_stays_scalar(self):
        assert maybe_columnar(build_cache(), [], None) is None

    def test_mismatched_writes_rejected(self):
        with pytest.raises(ValueError):
            columnar_access_many(build_cache(), [0, 64], writes=[True])

    def test_short_record_rejected_before_cache_changes(self):
        from repro.oracle.streams import hardware_stream

        cache = build_cache()
        warm, _ = to_addresses(hardware_stream(7, 4, 4, 200), cache.config)
        for address in warm:
            cache.access(address)
        before = observable_state(cache)
        addresses, writes = to_addresses(
            hardware_stream(8, 4, 4, 600), cache.config
        )
        with pytest.raises(ValueError):
            columnar_access_many(
                cache, addresses, writes=writes, record=[False] * 10
            )
        assert observable_state(cache) == before


class TestSaturationElision:
    """The kernel elides a decisive event when the selector window is
    full and unanimous and the event blames the same loser. That is
    only sound because such an event shifts the window into itself."""

    @pytest.mark.parametrize("loser", [0, 1])
    def test_unanimous_window_shifts_into_itself(self, loser):
        event = (loser == 0, loser == 1)
        history = BitVectorHistory(2, window=4)
        for _ in range(4):
            history.record(event)
        before = history.state_dict()
        history.record(event)
        assert history.state_dict() == before
        assert history.misses(loser) == 4
        assert history.misses(1 - loser) == 0
        history.record((loser == 1, loser == 0))
        assert history.state_dict() != before

    @pytest.mark.parametrize("loser", [0, 1])
    def test_pegged_start_matches_per_call(self, loser):
        # Every set starts with a full window blaming one component, so
        # the first decisive events of the batch take the elided path.
        from repro.oracle.streams import hardware_stream

        events = hardware_stream(23, 4, 4, 900)
        batched = build_cache()
        per_call = build_cache()
        event = (loser == 0, loser == 1)
        for cache in (batched, per_call):
            for selector in cache.policy.selectors:
                for _ in range(selector.history.window):
                    selector.history.record(event)
                assert selector.history.misses(loser) == (
                    selector.history.window
                )
        addresses, writes = to_addresses(events, batched.config)
        record = [False] * len(addresses)
        hits = columnar_access_many(
            batched, addresses, writes=writes, record=record
        )
        per_call_hits = [
            per_call.access(address, is_write=write).hit
            for address, write in zip(addresses, writes)
        ]
        assert hits == sum(per_call_hits)
        assert record == per_call_hits
        assert observable_state(batched) == observable_state(per_call)


class TestStoredTagRowsAfterBatch:
    def test_scalar_victims_after_batch_match_per_call(self):
        # The kernel writes CacheSet._tags without on_fill, so it must
        # drop the policy's stored-tag rows; scalar victims after a
        # columnar batch then rebuild them from the sets.
        from repro.oracle.streams import hardware_stream

        events = hardware_stream(31, 4, 4, 3 * AUTO_MIN_BATCH)
        batched = build_cache()
        per_call = build_cache()
        addresses, writes = to_addresses(events, batched.config)
        cut = (AUTO_MIN_BATCH, 2 * AUTO_MIN_BATCH)
        for address, write in zip(addresses[:cut[0]], writes[:cut[0]]):
            batched.access(address, is_write=write)
            per_call.access(address, is_write=write)
        assert all(row is not None for row in batched.policy._rows)

        middle = slice(*cut)
        assert kernel_name(batched, cut[1] - cut[0]) == "columnar"
        batched.access_many(addresses[middle], writes[middle])
        for address, write in zip(addresses[middle], writes[middle]):
            per_call.access(address, is_write=write)

        for address, write in zip(addresses[cut[1]:], writes[cut[1]:]):
            assert batched.access(address, is_write=write) == (
                per_call.access(address, is_write=write)
            )
        assert observable_state(batched) == observable_state(per_call)
