"""Every ``victim()`` call sees a full set.

``repro.policies.base`` promises each policy that the cache asks for a
victim only when a miss must replace a block in a full set, as in
Algorithm 1. Policies rely on it: LRU and FIFO return their list head,
LFU, EHC and the adaptive policy scan every way. These tests wrap each
policy (and, for the adaptive policy, each shadow component) so that
``victim()`` asserts the promise, then drive every registry policy and
``adaptive`` through both callers: the online shard, with deletes and
TTL expiry freeing ways, and the hardware cache.
"""

import pytest

from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard
from repro.oracle.harness import build_hardware_pair
from repro.oracle.streams import hardware_stream, shard_ops
from repro.policies.registry import available_policies

POLICIES = available_policies() + ["adaptive"]


def guard_full_sets(policy, calls):
    """Make ``policy.victim`` (and its components') assert a full view,
    recording the policy in ``calls`` on each call."""
    inner = policy.victim

    def victim(set_index, set_view):
        valid = len(set_view.valid_ways())
        assert valid == set_view.ways, (
            f"{policy.name}.victim() saw {valid} of {set_view.ways} ways"
        )
        calls.append(policy)
        return inner(set_index, set_view)

    policy.victim = victim
    for component in getattr(policy, "components", ()):
        guard_full_sets(component, calls)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("ttl", [None, 6.0])
@pytest.mark.parametrize("name", POLICIES)
def test_shard_victims_see_full_sets(name, ttl):
    capacity = 8
    clock = Clock()
    # 4-bit prints alias, so the adaptive fallback victim fires too.
    for partial_bits in (16, 4) if name == "adaptive" else (16,):
        policy = build_shard_policy(name, capacity, partial_bits=partial_bits,
                                    seed=3)
        calls = []
        guard_full_sets(policy, calls)
        shard = CacheShard(capacity, policy, default_ttl=ttl, clock=clock)
        for op, key in shard_ops(3, capacity, 1500):
            clock.now += 0.25
            if op == "get":
                shard.get(key)
            elif op == "get_or_compute":
                shard.get_or_compute(key, lambda k: ("v", k))
            elif op == "put":
                shard.put(key, ("v", key))
            else:
                shard.delete(key)
        assert shard.evictions > 0 and shard.deletes > 0
        assert (shard.expirations > 0) == (ttl is not None)
        assert policy in calls


@pytest.mark.parametrize("name", POLICIES)
def test_hardware_victims_see_full_sets(name):
    cache = build_hardware_pair(name, num_sets=4, ways=4, seed=5).cache
    calls = []
    guard_full_sets(cache.policy, calls)
    for set_index, tag, is_write in hardware_stream(5, 4, 4, 3000):
        cache.access_decomposed(set_index, tag, is_write)
    assert cache.stats.evictions > 0
    # The adaptive policy's shadow components choose victims too, from
    # full shadow sets.
    for policy in [cache.policy, *getattr(cache.policy, "components", ())]:
        assert policy in calls
