"""Tests for the resilient serving layer.

The ladder under test: fresh hit, then retried loader, then
stale-while-unavailable, then an honest ``LoaderUnavailable`` counted
as degraded — with per-shard circuit breakers deciding whether the
loader runs at all, and quarantine/rebuild taking whole shards out of
and back into service. Clocks and sleeps are injected everywhere, so
every timing behavior is deterministic.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.online.engine import AdaptiveKVCache
from repro.online.persistence import recover
from repro.online.resilience import (
    BREAKER_STATES,
    CircuitBreaker,
    LoaderUnavailable,
    ResilientKVCache,
    RetryPolicy,
)
from tests.conftest import retry_policy
from tests.online.test_contract import LAYERS


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        """Move time forward."""
        self.now += seconds


class FlappingLoader:
    """A scripted loader: fails until ``failures`` runs out."""

    def __init__(self, failures=0):
        self.failures = failures
        self.calls = 0

    def __call__(self, key):
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise ConnectionError("backend down")
        return f"value-of-{key}"


def _resilient(failures=0, attempts=3, threshold=5, cooldown=30.0,
               default_ttl=None):
    """A small harness: cache, wrapper, loader, clock, sleep log."""
    clock = FakeClock()
    sleeps = []
    cache = AdaptiveKVCache(
        capacity_entries=32, num_shards=4, policy="adaptive",
        default_ttl=default_ttl, clock=clock,
    )
    wrapper = ResilientKVCache(
        cache,
        retry=retry_policy(attempts, backoff=0.05),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=threshold, recovery_timeout=cooldown,
            clock=clock,
        ),
        sleep=sleeps.append,
        clock=clock,
    )
    return wrapper, FlappingLoader(failures), clock, sleeps


class TestRetryPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"backoff": -1.0}, {"budget": 0.0},
    ])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestCircuitBreaker:
    def test_states_constant(self):
        assert BREAKER_STATES == ("closed", "open", "half_open")

    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, recovery_timeout=10,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_recloses_or_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=10,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(10)
        assert breaker.state == "half_open" and breaker.allow()
        breaker.record_failure()  # probe fails: straight back to open
        assert breaker.state == "open"
        assert breaker.trips == 2
        clock.advance(10)
        breaker.record_success()  # probe succeeds: closed again
        assert breaker.state == "closed"

    @pytest.mark.parametrize("kwargs", [
        {"failure_threshold": 0}, {"recovery_timeout": 0.0},
    ])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


class TestServingLadder:
    def test_happy_path_loads_once_then_hits(self):
        wrapper, loader, _clock, sleeps = _resilient()
        assert wrapper.get_or_compute("k", loader) == "value-of-k"
        assert wrapper.get_or_compute("k", loader) == "value-of-k"
        assert loader.calls == 1
        assert sleeps == []

    def test_transient_failures_retried_with_backoff(self):
        wrapper, loader, _clock, sleeps = _resilient(failures=2, attempts=3)
        assert wrapper.get_or_compute("k", loader) == "value-of-k"
        assert loader.calls == 3
        assert sleeps == [0.05, 0.10]

    def test_default_schedule_is_three_doubling_attempts(self):
        clock, sleeps = FakeClock(), []
        wrapper = ResilientKVCache(
            AdaptiveKVCache(capacity_entries=32, num_shards=4, clock=clock),
            sleep=sleeps.append, clock=clock,
        )
        loader = FlappingLoader(99)
        with pytest.raises(LoaderUnavailable):
            wrapper.get_or_compute("k", loader)
        assert loader.calls == RetryPolicy.attempts == 3
        assert sleeps == [0.05, 0.10]

    def test_exhausted_retries_without_stale_raise(self):
        wrapper, loader, _clock, _sleeps = _resilient(failures=99, attempts=2)
        with pytest.raises(LoaderUnavailable):
            wrapper.get_or_compute("k", loader)
        assert loader.calls == 2
        assert wrapper.stats().degraded == 1

    def test_stale_entry_served_when_loader_down(self):
        wrapper, loader, clock, _sleeps = _resilient(
            failures=99, attempts=1, default_ttl=5.0
        )
        wrapper.put("k", "cached")
        clock.advance(10.0)  # the entry is now expired
        before = wrapper.stats()
        assert wrapper.get_or_compute("k", loader) == "cached"
        after = wrapper.stats()
        assert after.stale_hits == before.stale_hits + 1
        # Regression: a stale serve must not inflate the fresh-hit
        # count — the real lookup was a miss and stays one.
        assert after.hits == before.hits
        assert after.hits + after.misses == after.gets
        assert after.stale_hits > 0

    def test_retry_budget_caps_attempts(self):
        clock = FakeClock()
        cache = AdaptiveKVCache(capacity_entries=32, num_shards=4,
                                clock=clock)

        def slow_sleep(seconds):
            clock.advance(seconds + 1.0)

        wrapper = ResilientKVCache(
            cache,
            retry=retry_policy(5, backoff=0.1, budget=0.5),
            sleep=slow_sleep, clock=clock,
        )
        loader = FlappingLoader(failures=99)
        with pytest.raises(LoaderUnavailable):
            wrapper.get_or_compute("k", loader)
        # First attempt plus one retry; the budget then stops the rest.
        assert loader.calls == 2


class TestBreakerIntegration:
    def test_open_breaker_skips_the_loader(self):
        wrapper, loader, _clock, _sleeps = _resilient(
            failures=99, attempts=1, threshold=2
        )
        for _ in range(2):
            with pytest.raises(LoaderUnavailable):
                wrapper.get_or_compute("k", loader)
        calls_when_tripped = loader.calls
        index = wrapper.engine.shard_index("k")
        assert wrapper.breakers[index].state == "open"
        with pytest.raises(LoaderUnavailable):
            wrapper.get_or_compute("k", loader)
        assert loader.calls == calls_when_tripped  # loader never ran

    def test_cooldown_probe_recloses_breaker(self):
        wrapper, loader, clock, _sleeps = _resilient(
            failures=2, attempts=1, threshold=2, cooldown=30.0
        )
        for _ in range(2):
            with pytest.raises(LoaderUnavailable):
                wrapper.get_or_compute("k", loader)
        clock.advance(31.0)
        assert wrapper.get_or_compute("k", loader) == "value-of-k"
        index = wrapper.engine.shard_index("k")
        assert wrapper.breakers[index].state == "closed"


class TestQuarantine:
    def test_quarantined_shard_serves_nothing(self):
        wrapper, loader, _clock, _sleeps = _resilient()
        wrapper.put("k", "v")
        index = wrapper.engine.shard_index("k")
        wrapper.quarantine(index)
        assert wrapper.get("k", default="fallback") == "fallback"
        assert "k" not in wrapper
        assert not wrapper.delete("k")
        wrapper.put("k", "ignored")  # dropped, not an error
        with pytest.raises(LoaderUnavailable):
            wrapper.get_or_compute("k", loader)
        assert loader.calls == 0
        assert wrapper.stats().degraded >= 2

    def test_rebuild_returns_shard_to_service(self):
        wrapper, loader, _clock, _sleeps = _resilient()
        wrapper.put("k", "v")
        index = wrapper.engine.shard_index("k")
        wrapper.quarantine(index)
        wrapper.rebuild(index)
        assert wrapper.health()["quarantined"] == []
        assert wrapper.get("k") is None  # rebuilt empty
        assert wrapper.get_or_compute("k", loader) == "value-of-k"

    @pytest.mark.parametrize("name", ["resilient-persistent",
                                      "resilient-live"])
    def test_rebuild_refused_over_a_durable_layer(self, name, tmp_path):
        """No WAL record carries a rebuild, so over a durable layer a
        recovery would replay the log onto the discarded shard and
        bring its entries back; the ladder refuses the rebuild."""
        ladder = LAYERS[name](tmp_path, FakeClock())
        for key in range(8):
            ladder.put(key, ("v", key))
        index = ladder.engine.shard_index(0)
        ladder.quarantine(index)
        with pytest.raises(ValueError):
            ladder.rebuild(index)
        assert ladder.health()["quarantined"] == [index]
        ladder.cache.abandon()
        recovered = recover(ladder.cache.directory)
        # The shard was never discarded, so recovery is exact.
        assert recovered.get(0) == ("v", 0)
        recovered.close()

    def test_out_of_range_index_rejected(self):
        wrapper, _loader, _clock, _sleeps = _resilient()
        with pytest.raises(IndexError):
            wrapper.quarantine(99)


class TestHealthProbes:
    def test_health_shape_and_readiness(self):
        wrapper, _loader, _clock, _sleeps = _resilient()
        health = wrapper.health()
        assert len(health["shards"]) == 4
        assert health["quarantined"] == []
        assert health["ready"] is True
        assert wrapper.ready()

        wrapper.quarantine(0)
        wrapper.quarantine(1)
        assert wrapper.ready()  # 2 of 4 serving, default floor is half
        wrapper.quarantine(2)
        assert not wrapper.ready()
        health = wrapper.health()
        assert health["quarantined"] == [0, 1, 2]
        assert health["ready"] is False

    def test_len_and_stats_passthrough(self):
        wrapper, _loader, _clock, _sleeps = _resilient()
        wrapper.put("a", 1)
        wrapper.put("b", 2)
        assert len(wrapper) == 2
        assert wrapper.stats().puts == 2


class TestHalfOpenProbeToken:
    """Half-open lets exactly one trial through (lock-guarded token)."""

    def _tripped_breaker(self, clock):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=5,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5)
        return breaker

    def test_single_probe_until_outcome(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        assert breaker.state == "half_open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else waits
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.allow() and breaker.state == "closed"

    def test_failed_probe_releases_token_next_cooldown(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(5)
        assert breaker.allow()       # a fresh probe after the cooldown
        assert not breaker.allow()

    def test_thundering_herd_gets_one_probe(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        barrier = threading.Barrier(16)
        admitted = []

        def caller():
            barrier.wait()
            for _ in range(50):
                if breaker.allow():
                    admitted.append(threading.get_ident())

        threads = [threading.Thread(target=caller) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # 16 threads x 50 attempts against a half-open breaker: exactly
        # one probe admitted in total, because no outcome is ever
        # recorded to settle it.
        assert len(admitted) == 1

    def test_herd_with_recorded_outcomes_stays_serialized(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        lock = threading.Lock()
        in_probe = [0]
        max_concurrent = [0]
        barrier = threading.Barrier(8)

        def caller():
            barrier.wait()
            for _ in range(25):
                if not breaker.allow():
                    continue
                with lock:
                    in_probe[0] += 1
                    max_concurrent[0] = max(max_concurrent[0], in_probe[0])
                with lock:
                    in_probe[0] -= 1
                # A failing probe reopens the breaker; advance past the
                # cooldown so later iterations race for a fresh token.
                breaker.record_failure()
                clock.advance(5)

        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Probes happened (the breaker kept re-entering half-open), but
        # never two at once.
        assert max_concurrent[0] == 1


class LockedBreaker:
    """The reference breaker: every call takes the lock, so each is
    one atomic step of the state machine :class:`CircuitBreaker`
    documents."""

    def __init__(self, failure_threshold, recovery_timeout, clock):
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_inflight = False
        self.trips = 0

    def _advance_locked(self):
        if (self._state == "open"
                and self._clock() - self._opened_at >= self.recovery_timeout):
            self._state = "half_open"
            self._probe_inflight = False
        return self._state

    @property
    def state(self):
        with self._lock:
            return self._advance_locked()

    def allow(self):
        return self.admit()[0]

    def admit(self):
        with self._lock:
            state = self._advance_locked()
            if state == "open":
                return False, False
            if state == "half_open":
                if self._probe_inflight:
                    return False, False
                self._probe_inflight = True
                return True, True
            return True, False

    def abort_probe(self):
        with self._lock:
            self._probe_inflight = False

    def record_success(self):
        with self._lock:
            self._failures = 0
            self._state = "closed"
            self._probe_inflight = False

    def record_failure(self):
        with self._lock:
            self._advance_locked()
            self._failures += 1
            if (self._state == "half_open"
                    or self._failures >= self.failure_threshold):
                if self._state != "open":
                    self.trips += 1
                self._state = "open"
                self._opened_at = self._clock()
                self._failures = 0
                self._probe_inflight = False


BREAKER_CALLS = ("allow", "admit", "record_success", "record_failure",
                 "abort_probe")


class TestBreakerFastPath:
    """The closed breaker's lock-free calls decide as the locked
    reference does, step by step."""

    @settings(max_examples=200, deadline=None)
    @given(threshold=st.integers(1, 4), cooldown=st.sampled_from([1.0, 5.0]),
           steps=st.lists(st.one_of(st.sampled_from(BREAKER_CALLS),
                                    st.sampled_from([0.5, 1.0, 5.0])),
                          max_size=60))
    def test_decisions_match_the_locked_reference(self, threshold, cooldown,
                                                  steps):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold, cooldown, clock=clock)
        reference = LockedBreaker(threshold, cooldown, clock)
        for step in steps:
            if isinstance(step, float):
                clock.advance(step)
                continue
            assert (getattr(breaker, step)()
                    == getattr(reference, step)()), step
            assert breaker.trips == reference.trips
            assert breaker._probe_inflight == reference._probe_inflight
            assert breaker.state == reference.state
