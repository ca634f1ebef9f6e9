"""Wide LFU sets pick victims from a lazy heap; decisions must not move.

:class:`~repro.policies.lfu.LFUPolicy` keeps, for sets at least
``HEAP_MIN_WAYS`` wide, a heap of ``(count, fill stamp, way)`` entries
that ``victim()`` pops stale entries from. These tests replay the same
event streams through a heap policy and a scan-only twin — through
shards, so fills, hits, deletes and full-set victims all occur, with
counters saturating and snapshot round trips mid-stream — and check an
adaptive simulator cache whose LFU shadow the columnar kernel rewrites
between scalar accesses.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.adaptive import AdaptivePolicy
from repro.online.shard import CacheShard
from repro.perf.kernel import kernel_name
from repro.policies.lfu import HEAP_MIN_WAYS, LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.registry import make_policy
from repro.utils.rng import DeterministicRNG


class ScanLFU(LFUPolicy):
    """LFU that always scans, recording which views it was asked about."""

    def __init__(self, num_sets, ways):
        self.views = set()
        super().__init__(num_sets, ways)

    def drop_derived_state(self):
        self._heaps = None

    def victim(self, set_index, set_view):
        self.views.add(type(set_view).__name__)
        return super().victim(set_index, set_view)


def _shard(policy):
    return CacheShard(policy.ways, policy)


def test_width_gate():
    assert LFUPolicy(4, 8)._heaps is None
    assert LFUPolicy(1, HEAP_MIN_WAYS)._heaps == [None]


@pytest.mark.parametrize("ways", [64, 128, 512])
def test_heap_matches_scan(ways):
    assert ways >= HEAP_MIN_WAYS
    rng = DeterministicRNG(ways)
    heap_policy = LFUPolicy(1, ways)
    reference = ScanLFU(1, ways)
    real = _shard(heap_policy)
    twin = _shard(reference)
    built = saturated = 0
    for step in range(30 * ways):
        if step % ways == 0:
            # Hit every resident key, so for a while the least frequent
            # entry is not a fresh fill.
            for key in sorted(real.resident_keys()):
                real.get(key)
                twin.get(key)
        # Skewed keys over three shards' worth: a hot few saturate
        # their counters at 31.
        key = int(3 * ways * rng.random() ** 3)
        roll = rng.random()
        for shard in (real, twin):
            if roll < 0.6:
                shard.get_or_compute(key, lambda k: ("v", k))
            elif roll < 0.85:
                shard.put(key, ("v", key))
            elif roll < 0.98:
                shard.get(key)
            else:
                shard.delete(key)
        built += heap_policy._heaps[0] is not None
        if step % (7 * ways) == 7 * ways - 1:
            real.load_state_dict(real.state_dict())
            assert heap_policy._heaps == [None]
        assert real._key_to_way == twin._key_to_way
        if step % 16 == 0:
            assert real.state_dict() == twin.state_dict()
            saturated += heap_policy._max_count in heap_policy._count[0]
    assert real.state_dict() == twin.state_dict()
    assert built > 0 and saturated > 0
    assert reference.views == {"ShardView"}
    assert real.evictions == twin.evictions > ways


def _adaptive_cache(ways):
    config = CacheConfig(size_bytes=4 * ways * 64, ways=ways, line_bytes=64)
    policy = AdaptivePolicy(
        config.num_sets, ways,
        [make_policy(name, config.num_sets, ways) for name in ("lru", "lfu")],
    )
    return SetAssociativeCache(config, policy)


def test_kernel_rewrite_drops_component_heaps():
    """The columnar kernel rewrites the LFU shadow's counters and fill
    stamps in place; a heap built before it must not survive it."""
    ways = 2 * HEAP_MIN_WAYS
    rng = DeterministicRNG(11)
    lines = 4 * 4 * ways
    addresses = [
        int(lines * rng.random() ** 2) * 64 for _ in range(12_000)
    ]
    kernel = _adaptive_cache(ways)
    scalar = _adaptive_cache(ways)
    lfu_shadow = kernel.policy.components[1]
    warm, batch, tail = addresses[:4000], addresses[4000:8000], addresses[8000:]
    for address in warm:
        kernel.access(address)
    assert any(heap is not None for heap in lfu_shadow._heaps)
    assert kernel_name(kernel, len(batch)) == "columnar"
    kernel.access_many(batch)
    for address in tail:
        kernel.access(address)
    for address in addresses:
        scalar.access(address)
    assert kernel.stats == scalar.stats
    assert kernel.policy.state_dict() == scalar.policy.state_dict()


def test_base_policy_has_nothing_to_drop():
    policy = LRUPolicy(2, 4)
    before = policy.state_dict()
    policy.drop_derived_state()
    assert policy.state_dict() == before
