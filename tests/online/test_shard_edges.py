"""Edge cases of the online shard: TTL x eviction, byte budgets,
single-flight failures.

These pin the semantics the differential harness observes through the
public API — lazy expiry racing policy eviction, the byte budget's
lone-oversized-entry escape hatch, and exception propagation out of
``get_or_compute`` without a half-installed entry.
"""

import pytest

from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard


class FakeClock:
    """A manually-advanced monotonic clock for TTL tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        """Move time forward."""
        self.now += seconds


def make_shard(capacity=4, **kwargs):
    return CacheShard(capacity, build_shard_policy("lru", capacity), **kwargs)


class TestTTLRacingEviction:
    def test_expired_entry_can_be_the_eviction_victim(self):
        """Expiry is lazy, so an expired-but-untouched entry still holds
        a slot; a fill that needs that slot evicts it (eviction counter),
        it does not expire it (expiration counter)."""
        clock = FakeClock()
        shard = make_shard(capacity=2, default_ttl=10.0, clock=clock)
        shard.put("a", 1)
        clock.advance(1.0)
        shard.put("b", 2)
        clock.advance(20.0)  # "a" and "b" are now both stale, untouched
        shard.put("c", 3)
        snap = shard.snapshot()
        assert snap["evictions"] == 1
        assert snap["expirations"] == 0
        assert snap["occupancy"] == 2
        assert shard.contains("c")

    def test_lookup_wins_the_race_and_expires_instead(self):
        """If the stale key is touched first, the same slot is freed by
        expiry — and the later fill then takes the free way without
        evicting anything."""
        clock = FakeClock()
        shard = make_shard(capacity=2, default_ttl=10.0, clock=clock)
        shard.put("a", 1)
        shard.put("b", 2)
        clock.advance(20.0)
        assert shard.get("a", default="gone") == "gone"
        shard.put("c", 3)
        snap = shard.snapshot()
        assert snap["expirations"] == 1
        assert snap["evictions"] == 0
        assert snap["occupancy"] == 2

    def test_expiry_boundary_is_inclusive(self):
        clock = FakeClock()
        shard = make_shard(default_ttl=5.0, clock=clock)
        shard.put("a", 1)
        clock.advance(5.0)  # exactly expires_at: already expired
        assert not shard.contains("a")

    def test_put_over_expired_key_is_an_insert_not_an_update(self):
        clock = FakeClock()
        shard = make_shard(default_ttl=5.0, clock=clock)
        shard.put("a", 1)
        clock.advance(6.0)
        shard.put("a", 2)
        snap = shard.snapshot()
        assert snap["expirations"] == 1
        assert snap["inserts"] == 2
        assert snap["updates"] == 0
        assert shard.get("a") == 2

    def test_delete_of_expired_key_reports_absent(self):
        clock = FakeClock()
        shard = make_shard(default_ttl=5.0, clock=clock)
        shard.put("a", 1)
        clock.advance(6.0)
        assert shard.delete("a") is False
        snap = shard.snapshot()
        assert snap["expirations"] == 1
        assert snap["deletes"] == 0
        assert snap["occupancy"] == 0


class TestSingleFlightExceptions:
    def test_compute_exception_propagates_and_installs_nothing(self):
        shard = make_shard()

        def boom(key):
            raise RuntimeError("backend down")

        with pytest.raises(RuntimeError, match="backend down"):
            shard.get_or_compute("k", boom)
        assert not shard.contains("k")
        snap = shard.snapshot()
        assert snap["occupancy"] == 0
        assert (snap["gets"], snap["misses"]) == (1, 1)

    def test_failed_compute_does_not_poison_the_key(self):
        """A later get_or_compute on the same key runs its compute and
        installs normally; the shard holds no tombstone."""
        shard = make_shard()
        with pytest.raises(ValueError):
            shard.get_or_compute("k", lambda k: (_ for _ in ()).throw(
                ValueError("first try")))
        assert shard.get_or_compute("k", lambda k: 42) == 42
        assert shard.get("k") == 42
        snap = shard.snapshot()
        assert snap["misses"] == 2
        assert snap["hits"] == 1

    def test_lock_released_after_compute_failure(self):
        """The shard lock must not leak on the exception path — any
        subsequent operation would deadlock if it did."""
        shard = make_shard()
        with pytest.raises(ZeroDivisionError):
            shard.get_or_compute("k", lambda k: 1 / 0)
        shard.put("other", 1)  # would hang on a leaked lock
        assert shard.get("other") == 1
