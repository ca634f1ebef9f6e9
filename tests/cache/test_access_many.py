"""Decision-identity tests for the batched cache entry point.

``access_many`` exists purely for speed; these tests pin the contract
that makes it safe to use anywhere ``access`` is used: identical hits,
misses, evictions, writebacks, per-set counters and final tag contents
for every policy kind, including the adaptive schemes whose shadow
state is the easiest thing to desynchronize.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.experiments.base import build_l2_policy
from repro.utils.rng import DeterministicRNG

POLICY_KINDS = ["lru", "fifo", "lfu", "mru", "random", "srrip", "bip",
                "adaptive", "adaptive5", "sbar"]


def mixed_stream(config, accesses=1200, seed=11):
    """Address + write-flag stream with reuse, conflict and stores."""
    rng = DeterministicRNG(seed)
    lines = config.num_lines * 3
    addresses, writes = [], []
    base = 0
    for _ in range(accesses):
        if rng.random() < 0.5:
            base = (base + 1) % lines
        else:
            base = int(rng.random() * lines)
        addresses.append(base * config.line_bytes)
        writes.append(rng.random() < 0.3)
    return addresses, writes


def snapshot(cache):
    """Everything observable: stats counters and resident tags."""
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


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_access_many_matches_access(kind):
    config = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)
    addresses, writes = mixed_stream(config)

    serial = SetAssociativeCache(config, build_l2_policy(config, kind))
    for address, is_write in zip(addresses, writes):
        serial.access(address, is_write)

    batched = SetAssociativeCache(config, build_l2_policy(config, kind))
    hits = batched.access_many(addresses, writes)

    assert snapshot(batched) == snapshot(serial)
    assert hits == serial.stats.hits


def test_access_many_defaults_to_reads():
    config = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64)
    addresses, _ = mixed_stream(config, accesses=400)

    serial = SetAssociativeCache(config, build_l2_policy(config, "lru"))
    for address in addresses:
        serial.access(address)

    batched = SetAssociativeCache(config, build_l2_policy(config, "lru"))
    batched.access_many(addresses)
    assert snapshot(batched) == snapshot(serial)
    assert batched.stats.writebacks == 0


def test_access_many_empty_batch():
    config = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64)
    cache = SetAssociativeCache(config, build_l2_policy(config, "lru"))
    assert cache.access_many([]) == 0
    assert cache.stats.accesses == 0


def test_access_many_resumes_from_existing_state():
    """Mixing entry points mid-stream still matches pure per-call."""
    config = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64)
    addresses, writes = mixed_stream(config, accesses=600)
    half = len(addresses) // 2

    serial = SetAssociativeCache(config, build_l2_policy(config, "adaptive"))
    for address, is_write in zip(addresses, writes):
        serial.access(address, is_write)

    mixed = SetAssociativeCache(config, build_l2_policy(config, "adaptive"))
    for address, is_write in zip(addresses[:half], writes[:half]):
        mixed.access(address, is_write)
    mixed.access_many(addresses[half:], writes[half:])

    assert snapshot(mixed) == snapshot(serial)


@pytest.mark.parametrize("kind", ["lru", "adaptive"])
def test_access_many_rejects_mismatched_writes(kind):
    """A short write-flag list must not silently truncate the batch."""
    config = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)
    addresses, writes = mixed_stream(config, accesses=1000)
    cache = SetAssociativeCache(config, build_l2_policy(config, kind))
    with pytest.raises(ValueError):
        cache.access_many(addresses, writes[:10])
    assert cache.stats.accesses == 0
