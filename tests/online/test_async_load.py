"""The async resilient ladder under concurrent load and cancellation.

Satellites of the serving PR:

* stats hygiene — ``stale_hits``/``degraded`` never inflate ``hits``,
  and ``hits + misses == gets`` holds under concurrent async load;
* breaker lifecycle — open/half-open transitions during an in-flight
  burst admit exactly one probe;
* quarantine/rebuild racing in-flight reads stays consistent;
* the RetryBudget/backoff accounting audit — a request cancelled
  mid-backoff or mid-loader must release its retry token and a held
  half-open probe, and must not record a breaker outcome.
* sync/async identity — ``get_or_compute`` and ``aget_or_compute``
  run one ladder, so the same seeded stream makes the same decisions
  through either; the sync entry point refuses a loader whose
  awaitable suspends instead of caching the coroutine.

Everything runs on the virtual-time loop, so "concurrent" means real
asyncio interleaving with deterministic schedules.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.faults.online import AsyncFlakyLoader, FlakyLoader
from repro.online.engine import AdaptiveKVCache
from repro.online.resilience import (
    CircuitBreaker,
    LoaderUnavailable,
    ResilientKVCache,
    RetryBudget,
    RetryPolicy,
)
from repro.serve.vloop import VirtualTimeEventLoop


def build(loop, retry=None, breaker=None, ttl=None, shards=4):
    engine = AdaptiveKVCache(capacity_entries=128, num_shards=shards,
                             default_ttl=ttl, clock=loop.time)
    return ResilientKVCache(
        engine,
        retry=retry or RetryPolicy(attempts=1),
        breaker_factory=breaker,
        clock=loop.time,
    )


def key_on_shard(resilient, shard_index, prefix="k"):
    """A key that routes to ``shard_index``."""
    for i in range(10_000):
        key = f"{prefix}{i}"
        if resilient._shard_index(key) == shard_index:
            return key
    raise AssertionError("no key found for shard")


class TestConcurrentLoad:
    def test_stats_add_up_under_concurrency(self):
        loop = VirtualTimeEventLoop()
        resilient = build(loop)
        calls = []

        async def loader(key):
            calls.append(key)
            await asyncio.sleep(0.01)
            return ("v", key)

        async def main():
            inner = asyncio.get_running_loop()
            tasks = [
                inner.create_task(
                    resilient.aget_or_compute(f"k{i % 16}", loader)
                )
                for i in range(200)
            ]
            return await asyncio.gather(*tasks)

        values = loop.run_until_complete(main())
        assert all(value == ("v", f"k{i % 16}")
                   for i, value in enumerate(values))
        stats = resilient.stats()
        assert stats.gets == 200
        assert stats.hits + stats.misses == stats.gets
        assert stats.stale_hits == 0
        # Concurrent misses on the same cold key each run the loader
        # (no request coalescing — by design), so calls >= distinct.
        assert len(set(calls)) == 16

    def test_hits_not_inflated_by_stale_serves(self):
        loop = VirtualTimeEventLoop()
        resilient = build(loop, ttl=1.0)

        async def good(key):
            return ("fresh", key)

        async def bad(key):
            raise IOError("backend down")

        async def main():
            await resilient.aget_or_compute("k", good)   # miss + fill
            await resilient.aget_or_compute("k", good)   # hit
            await asyncio.sleep(2.0)                     # TTL expires
            return await resilient.aget_or_compute("k", bad)

        value = loop.run_until_complete(main())
        assert value == ("fresh", "k")  # stale, but previously true
        stats = resilient.stats()
        assert stats.stale_hits == 1
        # The stale serve is *not* a hit: hits stayed at the one real
        # hit, and gets/misses still reconcile.
        assert stats.hits == 1
        assert stats.hits + stats.misses == stats.gets

    def test_sync_and_async_loaders_both_work(self):
        loop = VirtualTimeEventLoop()
        resilient = build(loop)

        def plain(key):
            return ("plain", key)

        async def coro(key):
            await asyncio.sleep(0)
            return ("coro", key)

        async def main():
            one = await resilient.aget_or_compute("a", plain)
            two = await resilient.aget_or_compute("b", coro)
            return one, two

        assert loop.run_until_complete(main()) == (
            ("plain", "a"), ("coro", "b")
        )


class TestBreakerUnderBurst:
    def test_burst_trips_breaker_and_half_open_admits_one_probe(self):
        loop = VirtualTimeEventLoop()
        resilient = build(
            loop,
            retry=RetryPolicy(attempts=1),
            breaker=lambda: CircuitBreaker(
                failure_threshold=3, recovery_timeout=1.0, clock=loop.time
            ),
            shards=1,
        )
        attempts = []

        async def failing(key):
            attempts.append(loop.time())
            await asyncio.sleep(0.01)
            raise IOError("down")

        async def main():
            inner = asyncio.get_running_loop()
            # Burst of 10 concurrent requests against a dead backend.
            burst = [
                inner.create_task(resilient.aget_or_compute(f"b{i}",
                                                            failing))
                for i in range(10)
            ]
            results = await asyncio.gather(*burst, return_exceptions=True)
            assert all(isinstance(r, LoaderUnavailable) for r in results)
            tripped_calls = len(attempts)
            assert resilient.breakers[0].state == "open"

            # While open: no loader call at all.
            with pytest.raises(LoaderUnavailable):
                await resilient.aget_or_compute("open-era", failing)
            assert len(attempts) == tripped_calls

            # Past the cooldown: half-open, and a concurrent burst may
            # send exactly ONE probe.
            await asyncio.sleep(1.1)
            assert resilient.breakers[0].state == "half_open"
            probes = [
                inner.create_task(resilient.aget_or_compute(f"p{i}",
                                                            failing))
                for i in range(6)
            ]
            await asyncio.gather(*probes, return_exceptions=True)
            assert len(attempts) == tripped_calls + 1
            # The failed probe re-opened the breaker.
            assert resilient.breakers[0].state == "open"

        loop.run_until_complete(main())

    def test_successful_probe_recloses_mid_traffic(self):
        loop = VirtualTimeEventLoop()
        resilient = build(
            loop,
            breaker=lambda: CircuitBreaker(
                failure_threshold=2, recovery_timeout=0.5, clock=loop.time
            ),
            shards=1,
        )
        healthy = [False]

        async def flaky(key):
            await asyncio.sleep(0.01)
            if not healthy[0]:
                raise IOError("down")
            return ("v", key)

        async def main():
            for i in range(2):
                with pytest.raises(LoaderUnavailable):
                    await resilient.aget_or_compute(f"t{i}", flaky)
            assert resilient.breakers[0].state == "open"
            healthy[0] = True
            await asyncio.sleep(0.6)
            value = await resilient.aget_or_compute("probe", flaky)
            assert value == ("v", "probe")
            assert resilient.breakers[0].state == "closed"
            assert resilient.breakers[0].trips == 1

        loop.run_until_complete(main())


class TestQuarantineRacingReads:
    def test_quarantine_mid_flight_then_rebuild(self):
        loop = VirtualTimeEventLoop()
        resilient = build(loop, shards=4)
        key = key_on_shard(resilient, 2)
        shard_index = 2

        async def loader(k):
            await asyncio.sleep(0.05)
            return ("v", k)

        async def chaos():
            await asyncio.sleep(0.02)
            resilient.quarantine(shard_index)
            await asyncio.sleep(0.2)
            resilient.rebuild(shard_index)

        async def reader(delay):
            await asyncio.sleep(delay)
            try:
                return await resilient.aget_or_compute(key, loader)
            except LoaderUnavailable:
                return "unavailable"

        async def main():
            inner = asyncio.get_running_loop()
            tasks = [inner.create_task(chaos())]
            tasks += [
                inner.create_task(reader(delay))
                for delay in (0.0, 0.05, 0.1, 0.25, 0.3)
            ]
            return await asyncio.gather(*tasks)

        results = loop.run_until_complete(main())[1:]
        # Every outcome is either the true value or an honest refusal
        # — never a wrong value.
        assert set(results) <= {("v", key), "unavailable"}
        # After the rebuild the shard serves again.
        assert results[-1] == ("v", key)
        assert resilient.quarantined() == frozenset()

    def test_quarantined_shard_refuses_honestly(self):
        # A quarantined shard's state is suspect: even a resident
        # entry is refused (counted degraded), never served — the
        # async path matches the sync ladder's decision exactly.
        loop = VirtualTimeEventLoop()
        resilient = build(loop, shards=4)
        key = key_on_shard(resilient, 1)

        async def loader(k):
            return ("v", k)

        async def main():
            await resilient.aget_or_compute(key, loader)
            resilient.quarantine(1)
            with pytest.raises(LoaderUnavailable):
                await resilient.aget_or_compute(key, loader)

        degraded_before = resilient.stats().degraded
        loop.run_until_complete(main())
        stats = resilient.stats()
        assert stats.degraded == degraded_before + 1
        assert stats.stale_hits == 0
        assert stats.hits + stats.misses == stats.gets


class TestCancellationAccounting:
    """Satellite 4: the RetryBudget/backoff audit under cancellation."""

    def test_cancel_mid_backoff_releases_token(self):
        loop = VirtualTimeEventLoop()
        resilient = build(
            loop, retry=RetryPolicy(attempts=3, backoff=0.5)
        )
        budget = RetryBudget(tokens=2)

        async def failing(key):
            raise IOError("down")

        async def main():
            inner = asyncio.get_running_loop()
            task = inner.create_task(
                resilient.aget_or_compute("k", failing,
                                          retry_budget=budget)
            )
            # Let it fail once and enter the first retry's backoff.
            await asyncio.sleep(0.25)
            assert budget.in_use == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        loop.run_until_complete(main())
        # The token came back; releasing again would raise.
        assert budget.in_use == 0
        with pytest.raises(RuntimeError, match="released more"):
            budget.release()

    def test_cancel_mid_loader_does_not_record_breaker_outcome(self):
        loop = VirtualTimeEventLoop()
        breaker_box = []

        def factory():
            breaker = CircuitBreaker(failure_threshold=2,
                                     recovery_timeout=9.0,
                                     clock=loop.time)
            breaker_box.append(breaker)
            return breaker

        resilient = build(loop, breaker=factory, shards=1)

        async def hanging(key):
            await asyncio.sleep(100.0)
            return "never"

        async def main():
            inner = asyncio.get_running_loop()
            task = inner.create_task(
                resilient.aget_or_compute("k", hanging)
            )
            await asyncio.sleep(0.1)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        loop.run_until_complete(main())
        breaker = breaker_box[0]
        # Not a failure, not a success: the closed breaker's failure
        # streak is untouched (one real failure still needed to count).
        assert breaker.state == "closed"
        assert breaker._failures == 0

    def test_cancelled_probe_releases_the_slot(self):
        loop = VirtualTimeEventLoop()
        resilient = build(
            loop,
            breaker=lambda: CircuitBreaker(
                failure_threshold=1, recovery_timeout=0.5, clock=loop.time
            ),
            shards=1,
        )
        hang = [False]

        async def loader(key):
            if hang[0]:
                await asyncio.sleep(100.0)
            raise IOError("down")

        async def main():
            inner = asyncio.get_running_loop()
            with pytest.raises(LoaderUnavailable):
                await resilient.aget_or_compute("trip", loader)
            assert resilient.breakers[0].state == "open"
            await asyncio.sleep(0.6)  # -> half-open

            hang[0] = True
            probe_task = inner.create_task(
                resilient.aget_or_compute("probe", loader)
            )
            await asyncio.sleep(0.1)  # probe admitted, hanging
            # Every other caller is refused while the probe is out.
            assert resilient.breakers[0].admit() == (False, False)
            probe_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await probe_task
            # The cancelled probe released its slot: the breaker is
            # not wedged — the next caller becomes the new probe.
            assert resilient.breakers[0].admit() == (True, True)

        loop.run_until_complete(main())

    def test_exhausted_budget_skips_retries_not_first_attempts(self):
        loop = VirtualTimeEventLoop()
        resilient = build(
            loop, retry=RetryPolicy(attempts=4, backoff=0.1), shards=1
        )
        budget = RetryBudget(tokens=1)
        calls = []

        async def failing(key):
            calls.append(key)
            await asyncio.sleep(0.01)
            raise IOError("down")

        async def main():
            inner = asyncio.get_running_loop()
            tasks = [
                inner.create_task(
                    resilient.aget_or_compute(f"k{i}", failing,
                                              retry_budget=budget)
                )
                for i in range(4)
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = loop.run_until_complete(main())
        assert all(isinstance(r, LoaderUnavailable) for r in results)
        # Every request got its first attempt (breaker allowing), but
        # the single shared token throttled the retry storm: far fewer
        # than 4 requests x 3 retries ran.
        first_attempts = sum(1 for k in calls if calls.count(k) == 1)
        assert budget.denied > 0
        assert budget.in_use == 0
        assert len(calls) < 16
        assert first_attempts >= 1

    def test_elapsed_budget_stops_retries(self):
        loop = VirtualTimeEventLoop()
        resilient = build(
            loop,
            retry=RetryPolicy(attempts=10, backoff=0.4, budget=1.0),
        )
        calls = []

        async def failing(key):
            calls.append(loop.time())
            raise IOError("down")

        async def main():
            with pytest.raises(LoaderUnavailable):
                await resilient.aget_or_compute("k", failing)
            return loop.time()

        elapsed = loop.run_until_complete(main())
        # Backoff 0.4, 0.8, ...: the elapsed budget (1.0 s) cuts the
        # schedule long before 10 attempts.
        assert len(calls) < 5
        assert elapsed <= 1.5

    def test_budget_over_release_is_loud(self):
        budget = RetryBudget(tokens=2)
        assert budget.try_acquire()
        budget.release()
        with pytest.raises(RuntimeError, match="released more"):
            budget.release()

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="tokens"):
            RetryBudget(tokens=0)


class ManualClock:
    """A monotonic clock advanced by hand or by a blocking ``sleep``."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _suspending(key):
    async def load():
        await asyncio.sleep(0)  # yields to the caller: a real suspension
        return ("late", key)

    return load()


class TestSyncLadderRejectsSuspendingLoaders:
    def test_suspending_loader_raises_and_caches_nothing(self):
        engine = AdaptiveKVCache(capacity_entries=64, num_shards=2)
        resilient = ResilientKVCache(
            engine,
            retry=RetryPolicy(attempts=3, backoff=0.0),
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1),
        )
        with pytest.raises(TypeError, match="aget_or_compute"):
            resilient.get_or_compute("k", _suspending)
        assert "k" not in resilient
        assert resilient.stats().puts == 0
        # No breaker outcome: a threshold-1 breaker would have tripped
        # on a recorded failure.
        breaker = resilient.breakers[resilient._shard_index("k")]
        assert breaker.state == "closed"
        assert breaker.trips == 0

    def test_suspending_probe_releases_the_slot(self):
        clock = ManualClock()
        engine = AdaptiveKVCache(capacity_entries=64, num_shards=2)
        resilient = ResilientKVCache(
            engine,
            retry=RetryPolicy(attempts=1),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, recovery_timeout=1.0, clock=clock
            ),
        )

        def failing(key):
            raise IOError("down")

        with pytest.raises(LoaderUnavailable):
            resilient.get_or_compute("k", failing)
        breaker = resilient.breakers[resilient._shard_index("k")]
        clock.sleep(1.0)
        assert breaker.state == "half_open"
        with pytest.raises(TypeError):
            resilient.get_or_compute("k", _suspending)
        # The cancelled probe gave its slot back: the next caller is
        # admitted as the probe, and no outcome was recorded.
        assert breaker.admit() == (True, True)
        assert breaker.trips == 1

    def test_loop_bound_loader_is_rejected_not_failed(self):
        # asyncio.sleep(d > 0) raises "no running event loop" outside a
        # loop instead of suspending; that is no backend failure either.
        engine = AdaptiveKVCache(capacity_entries=64, num_shards=2)
        resilient = ResilientKVCache(
            engine,
            retry=RetryPolicy(attempts=3, backoff=0.0),
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1),
        )
        loader = AsyncFlakyLoader(lambda key: ("v", key), failure_rate=0.0,
                                  base_latency=0.001)
        with pytest.raises(TypeError, match="aget_or_compute"):
            resilient.get_or_compute("k", loader)
        assert loader.calls == 1
        assert "k" not in resilient
        assert resilient.stats().puts == 0
        breaker = resilient.breakers[resilient._shard_index("k")]
        assert breaker.state == "closed"
        assert breaker.trips == 0

    def test_non_suspending_coroutine_loader_is_served(self):
        engine = AdaptiveKVCache(capacity_entries=64, num_shards=2)
        resilient = ResilientKVCache(engine)

        async def immediate(key):
            return ("now", key)

        assert resilient.get_or_compute("k", immediate) == ("now", "k")
        assert resilient.get("k") == ("now", "k")


class TestSyncAsyncLadderIdentity:
    """One seeded stream through both entry points, decision for
    decision: TTL expiry (stale serves), a quarantine/rebuild and
    breaker trips all occur, and every outcome and counter matches."""

    STEP = 0.05
    REQUESTS = 400

    def _stream(self, seed=7):
        rng = random.Random(seed)
        return [f"k{rng.randrange(24)}" for _ in range(self.REQUESTS)]

    def _build(self, clock, sleep):
        engine = AdaptiveKVCache(capacity_entries=32, num_shards=4,
                                 default_ttl=1.0, clock=clock)
        return ResilientKVCache(
            engine,
            retry=RetryPolicy(attempts=3, backoff=0.02, budget=0.05),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=3, recovery_timeout=0.5, clock=clock
            ),
            sleep=sleep,
            clock=clock,
        )

    @staticmethod
    def _disrupt(resilient, request):
        if request == 120:
            resilient.quarantine(1)
        elif request == 200:
            resilient.rebuild(1)

    @staticmethod
    def _summary(resilient):
        return (
            resilient.stats(),
            [(breaker.trips, breaker.state) for breaker in resilient.breakers],
        )

    def _flaky(self, cls):
        return cls(lambda key: ("v", key), failure_rate=0.25, burst=3,
                   seed=11)

    def test_same_stream_same_decisions(self):
        keys = self._stream()

        clock = ManualClock()
        sync = self._build(clock, clock.sleep)
        loader = self._flaky(FlakyLoader)
        sync_outcomes = []
        for request, key in enumerate(keys):
            self._disrupt(sync, request)
            try:
                sync_outcomes.append(sync.get_or_compute(key, loader))
            except LoaderUnavailable:
                sync_outcomes.append("unavailable")
            clock.sleep(self.STEP)

        loop = VirtualTimeEventLoop()
        resilient = self._build(loop.time, None)
        async_loader = self._flaky(AsyncFlakyLoader)

        async def drive():
            outcomes = []
            for request, key in enumerate(keys):
                self._disrupt(resilient, request)
                try:
                    outcomes.append(
                        await resilient.aget_or_compute(key, async_loader)
                    )
                except LoaderUnavailable:
                    outcomes.append("unavailable")
                await asyncio.sleep(self.STEP)
            return outcomes

        async_outcomes = loop.run_until_complete(drive())
        assert loop.time() == clock.now
        assert async_outcomes == sync_outcomes
        assert self._summary(resilient) == self._summary(sync)
        # The stream really exercised every rung being compared.
        stats, breakers = self._summary(sync)
        assert stats.stale_hits > 0
        assert stats.degraded > 0
        assert stats.expirations > 0
        assert sum(trips for trips, _ in breakers) > 0
        assert loader.calls == async_loader.calls
