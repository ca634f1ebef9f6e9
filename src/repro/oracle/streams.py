"""Seeded event-stream generators for differential campaigns.

Each generator is a pure function of its seed, so a campaign failure
reports the seed and anyone can replay the exact stream that diverged.
Streams are deliberately *hot*: tag/key spaces are sized a small
multiple of the cache capacity so evictions — where replacement policies
actually act — dominate, instead of cold misses.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.utils.rng import DeterministicRNG

#: Operation names emitted by :func:`shard_ops`.
SHARD_OPS = ("get", "get_or_compute", "put", "delete")


def hardware_stream(
    seed: int,
    num_sets: int,
    ways: int,
    length: int,
) -> List[Tuple[int, int, bool]]:
    """A random (set_index, tag, is_write) stream for hardware engines.

    A quarter of the accesses are writes, and the tag space is three
    times ``ways``: small enough that sets refill and evict repeatedly.

    Args:
        seed: replayable stream identity.
        num_sets: set indices are drawn uniformly from [0, num_sets).
        ways: associativity, used to size the tag space.
        length: number of accesses.
    """
    rng = DeterministicRNG(seed)
    tag_space = max(2, 3 * ways)
    stream = []
    for _ in range(length):
        set_index = rng.choice_index(num_sets)
        tag = rng.choice_index(tag_space)
        is_write = rng.random() < 0.25
        stream.append((set_index, tag, is_write))
    return stream


def shard_ops(
    seed: int,
    capacity: int,
    length: int,
) -> List[Tuple[str, int]]:
    """A random (op, key) stream for the online shard.

    Ops are drawn from :data:`SHARD_OPS` with a mix that keeps the shard
    full — mostly demand fills (``get_or_compute``) and writes (``put``),
    some no-fill lookups (``get``) and occasional ``delete`` so the
    free-list discipline is exercised. TTL expiry is *not* exercised
    here; it is wall-clock-dependent behaviour covered by dedicated unit
    tests, not by the policy oracle.

    Args:
        seed: replayable stream identity.
        capacity: shard entry capacity; the key space is three times
            it.
        length: number of operations.
    """
    rng = DeterministicRNG(seed)
    key_space = max(2, 3 * capacity)
    ops = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            op = "get_or_compute"
        elif roll < 0.70:
            op = "put"
        elif roll < 0.90:
            op = "get"
        else:
            op = "delete"
        ops.append((op, rng.choice_index(key_space)))
    return ops
