"""Unit tests for one locked shard (CacheShard)."""

import pytest

from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_shard(capacity=4, kind="lru", **kwargs):
    return CacheShard(capacity, build_shard_policy(kind, capacity), **kwargs)


class TestBasicOps:
    def test_get_put_roundtrip(self):
        shard = make_shard()
        assert shard.get("a") is None
        shard.put("a", 1)
        assert shard.get("a") == 1
        assert shard.contains("a")
        assert shard.occupancy() == 1

    def test_put_overwrites(self):
        shard = make_shard()
        shard.put("a", 1)
        shard.put("a", 2)
        assert shard.get("a") == 2
        assert shard.occupancy() == 1
        snap = shard.snapshot()
        assert snap["inserts"] == 1
        assert snap["updates"] == 1

    def test_delete(self):
        shard = make_shard()
        shard.put("a", 1)
        assert shard.delete("a")
        assert not shard.delete("a")
        assert shard.get("a") is None
        assert shard.occupancy() == 0

    def test_get_or_compute_computes_once(self):
        shard = make_shard()
        calls = []

        def compute(key):
            calls.append(key)
            return key.upper()

        assert shard.get_or_compute("a", compute) == "A"
        assert shard.get_or_compute("a", compute) == "A"
        assert calls == ["a"]
        snap = shard.snapshot()
        assert (snap["hits"], snap["misses"]) == (1, 1)

    def test_capacity_never_exceeded_lru_victim(self):
        shard = make_shard(capacity=2, kind="lru")
        shard.put("a", 1)
        shard.put("b", 2)
        shard.get("a")  # a is now MRU
        shard.put("c", 3)  # evicts b (LRU)
        assert shard.occupancy() == 2
        assert shard.get("b") is None
        assert shard.get("a") == 1
        assert shard.get("c") == 3
        assert shard.snapshot()["evictions"] == 1

    def test_resident_keys(self):
        shard = make_shard()
        for key in ("x", "y"):
            shard.put(key, 0)
        assert sorted(shard.resident_keys()) == ["x", "y"]


class TestValidation:
    def test_geometry_must_match(self):
        with pytest.raises(ValueError, match="geometry"):
            CacheShard(4, build_shard_policy("lru", 8))

    def test_positive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            CacheShard(0, build_shard_policy("lru", 1))

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError, match="default_ttl"):
            make_shard(default_ttl=0)
        shard = make_shard()
        with pytest.raises(ValueError, match="ttl"):
            shard.put("a", 1, ttl=-1)


class TestTTL:
    def test_lazy_expiry(self):
        clock = FakeClock()
        shard = make_shard(default_ttl=10, clock=clock)
        shard.put("a", 1)
        clock.advance(5)
        assert shard.get("a") == 1
        clock.advance(6)
        assert shard.get("a") is None
        assert shard.snapshot()["expirations"] == 1

    def test_per_entry_ttl_overrides_default(self):
        clock = FakeClock()
        shard = make_shard(default_ttl=10, clock=clock)
        shard.put("short", 1, ttl=1)
        shard.put("long", 2)
        clock.advance(2)
        assert shard.get("short") is None
        assert shard.get("long") == 2

    def test_overwrite_refreshes_ttl(self):
        clock = FakeClock()
        shard = make_shard(default_ttl=10, clock=clock)
        shard.put("a", 1)
        clock.advance(8)
        shard.put("a", 2)
        clock.advance(8)
        assert shard.get("a") == 2

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        shard = make_shard(clock=clock)
        shard.put("a", 1)
        clock.advance(1e9)
        assert shard.get("a") == 1


class TestAdaptiveShard:
    def test_adaptive_policy_runs_and_counts_switches(self):
        capacity = 8
        shard = CacheShard(
            capacity,
            build_shard_policy("adaptive", capacity,
                               components=("lru", "lfu")),
        )
        # Loop larger than capacity (LRU-hostile) then heavy reuse.
        for round_ in range(30):
            for i in range(capacity + 2):
                shard.get_or_compute(f"k{i}", lambda k: k)
        assert shard.occupancy() == capacity
        assert shard.selector_switches() >= 0
        snap = shard.snapshot()
        assert snap["hits"] + snap["misses"] == snap["gets"]

    def test_fixed_policy_reports_zero_switches(self):
        assert make_shard().selector_switches() == 0
