"""The asyncio serving front: admission control, deadlines, service slots.

:class:`AsyncServingFront` is what sits between an open-loop arrival
stream and a :class:`~repro.online.resilience.ResilientKVCache`. It
adds the three things an overloadable service needs that the cache
itself does not provide:

* **bounded in-flight admission** — at most ``max_pending`` requests
  may be queued-or-in-service; arrivals beyond that are *shed*
  immediately (:class:`RequestShed`) instead of growing an unbounded
  queue whose tail latency diverges;
* **service concurrency** — ``concurrency`` slots (an
  ``asyncio.Semaphore``) model the server's parallel capacity; under
  overload, requests queue FIFO for a slot and the queueing delay is
  what the tail-latency report measures;
* **per-request deadlines** — the whole sojourn (queue wait + service)
  runs under ``asyncio.wait_for``; a request that cannot finish inside
  ``deadline`` is cancelled and counted (:class:`RequestTimeout`), the
  SLO-miss signal.

While the cache underneath is live-recovering (WAL replay in
progress), the admission bound additionally scales with the resilient
cache's :meth:`~repro.online.resilience.ResilientKVCache.serving_fraction`:
with only a fraction of shards serving, the front sheds earlier rather
than queueing depth the reduced capacity cannot drain — backpressure
that relaxes automatically as replay cursors drain and shards promote.

Each admitted request is served by the cache's async resilient ladder
(:meth:`~repro.online.resilience.ResilientKVCache.aget_or_compute`),
optionally under a shared :class:`~repro.online.resilience.RetryBudget`
so a browning-out backend cannot multiply offered load through retries.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.online.contract import AsyncKVStore
from repro.online.resilience import RetryBudget


class RequestShed(RuntimeError):
    """The request was refused at admission: too many in flight."""


class RequestTimeout(RuntimeError):
    """The request missed its deadline and was cancelled."""


class AsyncServingFront:
    """Admission control and deadlines over the async resilient ladder.

    Args:
        resilient: the resilient cache to serve through.
        concurrency: parallel service slots (>= 1).
        max_pending: bound on requests queued-or-in-service; None
            disables shedding (an unbounded queue — only sensible when
            offered load is known to be under capacity).
        deadline: per-request sojourn deadline in seconds (queue wait
            plus service); None disables timeouts.
        retry_budget: optional shared retry-token pool passed through
            to the resilient ladder.
        service_time: fixed in-slot cost awaited by *every* admitted
            request, hit or miss — the server-side work of serving at
            all. With it, capacity is bounded at roughly
            ``concurrency / service_time`` even at a 100% hit ratio,
            which is what lets the harness overload the front.

    The semaphore is created lazily inside the running event loop, so
    one front can be constructed before the loop exists (and a fresh
    front must not be shared across loops).
    """

    def __init__(
        self,
        resilient: AsyncKVStore,
        concurrency: int = 8,
        max_pending: Optional[int] = None,
        deadline: Optional[float] = None,
        retry_budget: Optional[RetryBudget] = None,
        service_time: float = 0.0,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1 or None, got {max_pending}"
            )
        if deadline is not None and deadline <= 0:
            raise ValueError(
                f"deadline must be positive or None, got {deadline}"
            )
        if service_time < 0:
            raise ValueError(
                f"service_time must be >= 0, got {service_time}"
            )
        self.resilient = resilient
        self.concurrency = concurrency
        self.max_pending = max_pending
        self.deadline = deadline
        self.retry_budget = retry_budget
        self.service_time = service_time
        self._slots: Optional[asyncio.Semaphore] = None
        self._pending = 0
        # Outcome counters (monotonic; read for reports).
        self.admitted = 0
        self.shed = 0
        self.timeouts = 0
        self.completed = 0
        self.unavailable = 0

    def _semaphore(self) -> asyncio.Semaphore:
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.concurrency)
        return self._slots

    async def handle(self, key, loader):
        """Serve one request end to end (a fill takes the cache's default
        TTL, as every write does).

        Raises:
            RequestShed: refused at admission (``max_pending`` hit);
                the cache never sees the request.
            RequestTimeout: deadline exceeded; the in-flight work was
                cancelled (retry tokens and breaker probes released by
                the ladder's cancellation accounting).
            LoaderUnavailable: the ladder exhausted loader, retries and
                stale fallback.
        """
        return await self._admitted(key, self._serve_read(key, loader))

    async def write(self, key, value) -> None:
        """Apply one write (update/insert) under the same admission
        control, deadline and service slots as reads."""
        await self._admitted(key, self._serve_write(key, value))

    def _admission_bound(self) -> Optional[int]:
        """The effective in-flight bound, scaled during live recovery.

        ``max_pending * serving_fraction`` (never below 1) while part
        of the cache underneath is out of service; ``max_pending``
        otherwise.
        """
        bound = self.max_pending
        if bound is None:
            return None
        fraction = self.resilient.serving_fraction()
        if fraction >= 1.0:
            return bound
        return max(1, int(bound * fraction))

    async def _admitted(self, key, serving):
        """Admission check + deadline around one serving coroutine."""
        bound = self._admission_bound()
        if bound is not None and self._pending >= bound:
            self.shed += 1
            serving.close()  # never awaited; silence the warning
            raise RequestShed(
                f"{self._pending} requests in flight (bound "
                f"{bound}); shedding {key!r}"
            )
        self.admitted += 1
        self._pending += 1
        try:
            if self.deadline is None:
                return await serving
            try:
                return await asyncio.wait_for(
                    serving, timeout=self.deadline
                )
            except asyncio.TimeoutError:
                self.timeouts += 1
                raise RequestTimeout(
                    f"request for {key!r} missed its "
                    f"{self.deadline * 1000.0:.1f} ms deadline"
                ) from None
        finally:
            self._pending -= 1

    async def _serve_read(self, key, loader):
        """Wait for a service slot, then run the resilient ladder."""
        async with self._semaphore():
            if self.service_time > 0:
                await asyncio.sleep(self.service_time)
            try:
                value = await self.resilient.aget_or_compute(
                    key, loader, retry_budget=self.retry_budget
                )
            except Exception:
                self.unavailable += 1
                raise
            self.completed += 1
            return value

    async def _serve_write(self, key, value):
        """Wait for a service slot, then apply the write."""
        async with self._semaphore():
            if self.service_time > 0:
                await asyncio.sleep(self.service_time)
            self.resilient.put(key, value)
            self.completed += 1

    def counters(self) -> dict:
        """One dict of the front's outcome counters."""
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "unavailable": self.unavailable,
        }
