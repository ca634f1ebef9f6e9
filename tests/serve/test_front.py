"""The async serving front: admission, deadlines, slots, counters."""

from __future__ import annotations

import asyncio

import pytest

from repro.online.engine import AdaptiveKVCache
from repro.online.resilience import ResilientKVCache
from repro.serve.front import AsyncServingFront, RequestShed, RequestTimeout
from repro.serve.vloop import VirtualTimeEventLoop
from tests.conftest import retry_policy


def make_front(loop, **kwargs):
    engine = AdaptiveKVCache(capacity_entries=64, num_shards=4,
                             clock=loop.time)
    resilient = ResilientKVCache(
        engine, retry=retry_policy(1), clock=loop.time
    )
    return AsyncServingFront(resilient, **kwargs)


def slow_loader(delay):
    async def loader(key):
        await asyncio.sleep(delay)
        return ("v", key)

    return loader


class TestServing:
    def test_hit_after_miss(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=2)
        loader = slow_loader(0.01)

        async def main():
            first = await front.handle("k", loader)
            second = await front.handle("k", loader)
            return first, second, loop.time()

        first, second, elapsed = loop.run_until_complete(main())
        assert first == second == ("v", "k")
        # Only the miss paid the loader's latency; the hit was free.
        assert elapsed == pytest.approx(0.01)
        assert front.completed == 2
        assert front.counters()["admitted"] == 2

    def test_write_then_read_hits_without_loader(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=2)

        async def never(key):
            raise AssertionError("loader must not run on a hit")

        async def main():
            await front.write("k", "stored")
            return await front.handle("k", never)

        assert loop.run_until_complete(main()) == "stored"
        assert front.completed == 2

    def test_service_time_bounds_capacity(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=2, service_time=0.1)

        async def main():
            await asyncio.gather(*(
                asyncio.get_running_loop().create_task(
                    front.write(f"k{i}", i)
                )
                for i in range(8)
            ))
            return loop.time()

        # 8 writes, 2 slots, 0.1 s each: exactly 0.4 virtual seconds.
        assert loop.run_until_complete(main()) == pytest.approx(0.4)


class TestShedding:
    def test_sheds_beyond_max_pending(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, max_pending=2)
        loader = slow_loader(1.0)
        outcomes = []

        async def one(i):
            try:
                await front.handle(f"k{i}", loader)
                outcomes.append("ok")
            except RequestShed:
                outcomes.append("shed")

        async def main():
            inner = asyncio.get_running_loop()
            await asyncio.gather(*(inner.create_task(one(i))
                                   for i in range(5)))

        loop.run_until_complete(main())
        assert outcomes.count("shed") == 3
        assert outcomes.count("ok") == 2
        assert front.shed == 3
        assert front.admitted == 2
        assert front.admitted == (front.completed + front.timeouts
                                  + front.unavailable)

    def test_no_shedding_when_unbounded(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, max_pending=None)
        loader = slow_loader(0.5)

        async def main():
            inner = asyncio.get_running_loop()
            await asyncio.gather(*(
                inner.create_task(front.handle(f"k{i}", loader))
                for i in range(4)
            ))

        loop.run_until_complete(main())
        assert front.shed == 0
        assert front.completed == 4


class TestDeadlines:
    def test_timeout_counts_and_raises(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.2)
        loader = slow_loader(1.0)

        async def main():
            with pytest.raises(RequestTimeout):
                await front.handle("k", loader)
            return loop.time()

        assert loop.run_until_complete(main()) == pytest.approx(0.2)
        assert front.timeouts == 1
        assert front.completed == 0
        assert front.admitted == (front.completed + front.timeouts
                                  + front.unavailable)

    def test_queue_wait_counts_against_deadline(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=0.3)
        loader = slow_loader(0.2)
        outcomes = []

        async def one(i):
            try:
                await front.handle(f"k{i}", loader)
                outcomes.append(("ok", i))
            except RequestTimeout:
                outcomes.append(("timeout", i))

        async def main():
            inner = asyncio.get_running_loop()
            await asyncio.gather(*(inner.create_task(one(i))
                                   for i in range(3)))

        loop.run_until_complete(main())
        # First serves in 0.2 s; second waits 0.2 then misses its 0.3 s
        # deadline mid-service at 0.3; third would also blow through.
        assert ("ok", 0) in outcomes
        assert ("timeout", 1) in outcomes
        assert front.timeouts == 2

    def test_deadline_none_never_times_out(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1, deadline=None)
        loader = slow_loader(10.0)

        async def main():
            return await front.handle("k", loader)

        assert loop.run_until_complete(main()) == ("v", "k")
        assert front.timeouts == 0


class TestValidation:
    def test_rejects_bad_parameters(self):
        loop = VirtualTimeEventLoop()
        with pytest.raises(ValueError, match="concurrency"):
            make_front(loop, concurrency=0)
        with pytest.raises(ValueError, match="max_pending"):
            make_front(loop, max_pending=0)
        with pytest.raises(ValueError, match="deadline"):
            make_front(loop, deadline=0.0)
        with pytest.raises(ValueError, match="service_time"):
            make_front(loop, service_time=-0.1)

    def test_unavailable_counted(self):
        loop = VirtualTimeEventLoop()
        front = make_front(loop, concurrency=1)

        async def failing(key):
            raise IOError("backend down")

        from repro.online.resilience import LoaderUnavailable

        async def main():
            with pytest.raises(LoaderUnavailable):
                await front.handle("k", failing)

        loop.run_until_complete(main())
        assert front.unavailable == 1
        assert front.completed == 0
