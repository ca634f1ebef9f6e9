"""Resilient serving on top of the online engine.

:class:`ResilientKVCache` wraps a cache (an
:class:`~repro.online.engine.AdaptiveKVCache` or its persistent
wrapper) and hardens the ``get_or_compute`` path against flaky
loaders, the classic serving ladder:

1. **Cache hit** — answered normally, nothing else runs.
2. **Miss, breaker closed** — the loader runs under a bounded
   retry/backoff schedule with a total elapsed-time budget
   (:class:`RetryPolicy`); success fills the cache and closes the
   ladder.
3. **Miss, loader failing or breaker open** — *stale-while-unavailable*:
   an expired-but-still-resident entry is served rather than an error
   (:meth:`~repro.online.shard.CacheShard.peek_stale` reads it without
   policy events, so degraded serving never perturbs replacement
   decisions). Stale serves are counted separately (``stale_hits``) —
   they never inflate the real hit ratio.
4. **Nothing to serve** — the request is counted ``degraded`` and
   :class:`LoaderUnavailable` is raised.

Loader failures are tracked per shard by a
:class:`CircuitBreaker` (closed → open on consecutive failures →
half-open probe after a cooldown), so one collapsing backend partition
stops burning retry budget almost immediately while healthy shards
keep loading.

Shards can additionally be **quarantined** (e.g. after a detected
corruption): a quarantined shard serves nothing and swallows writes;
:meth:`ResilientKVCache.rebuild` swaps in a freshly built shard —
empty, or restored from a persisted snapshot's shard state.

When the wrapped cache is a
:class:`~repro.online.liverecovery.LiveRecoveringKVCache` (detected by
its ``shard_serving`` probe), the ladder adds a **recovery rung**: a
read whose shard is still replaying its WAL prefix never runs the
loader (filling a half-replayed shard would break recovery's
byte-identity guarantee) — it is answered from the wrapper's honest
recovering path (pending write, stale peek) or refused with
:class:`~repro.online.liverecovery.RecoveryInProgress`. Writes pass
through unconditionally; the wrapper dual-logs and defers them itself.
:meth:`ResilientKVCache.serving_fraction` folds replay progress into
one number the serving front uses for admission backpressure.

The ladder is written once for both entry points. The quarantine,
recovery and hit rungs are a plain method, so a hit creates no
coroutine; the breaker/retry/stale rungs are one coroutine that
``aget_or_compute`` awaits and ``get_or_compute`` runs to completion
in a single step, its backoff pauses blocking instead of suspending.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Callable, Optional

from repro.online.keyspace import key_fingerprint, shard_of

#: Circuit-breaker states.
BREAKER_STATES = ("closed", "open", "half_open")

#: Sentinel for "no cached value" on the hit rung.
_MISSING = object()


class LoaderUnavailable(RuntimeError):
    """The loader failed (or was skipped) and no stale value existed."""


class RetryPolicy:
    """A bounded retry schedule for loader calls.

    Args:
        attempts: maximum loader invocations per request (>= 1).
        backoff: sleep before the second attempt, seconds.
        multiplier: backoff growth factor per further attempt.
        budget: optional total elapsed-seconds budget for the whole
            schedule; checked *between* attempts (cooperative — a hung
            loader is not preempted, further attempts are just not
            started).
    """

    def __init__(
        self,
        attempts: int = 3,
        backoff: float = 0.05,
        multiplier: float = 2.0,
        budget: Optional[float] = None,
    ):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.attempts = attempts
        self.backoff = backoff
        self.multiplier = multiplier
        self.budget = budget


class RetryBudget:
    """A shared cap on in-flight retry attempts across all requests.

    Per-request retry schedules compose badly under overload: when a
    backend browns out, every in-flight request retries and the offered
    load *multiplies* exactly when capacity is scarcest. A retry budget
    bounds the blast radius: each retry (never the first attempt) must
    take a token; requests that find the pool empty skip straight to
    the stale/degraded ladder instead of queueing more retries.

    Tokens are returned when the attempt settles — including
    settlement-by-cancellation. The async ladder releases its token in
    a ``finally`` block, so a request cancelled mid-backoff or
    mid-loader cannot leak pool capacity; :meth:`release` raises on
    over-release, making double-counting a loud bug rather than a
    silent pool inflation.

    Thread-safe (a lock guards the counters) so one budget can span
    event loops and threads.
    """

    def __init__(self, tokens: int = 32):
        if tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {tokens}")
        self.tokens = tokens
        self._lock = threading.Lock()
        self._in_use = 0
        #: Retries skipped because the pool was exhausted.
        self.denied = 0

    def try_acquire(self) -> bool:
        """Take one token if available; False means skip the retry."""
        with self._lock:
            if self._in_use < self.tokens:
                self._in_use += 1
                return True
            self.denied += 1
            return False

    def release(self) -> None:
        """Return one token.

        Raises:
            RuntimeError: released more than acquired — an accounting
                bug (e.g. a cancellation path releasing twice).
        """
        with self._lock:
            if self._in_use <= 0:
                raise RuntimeError(
                    "retry budget released more tokens than were acquired"
                )
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        """Tokens currently held by in-flight retries."""
        with self._lock:
            return self._in_use


class CircuitBreaker:
    """A per-shard circuit breaker over loader outcomes.

    Closed: calls flow. After ``failure_threshold`` *consecutive*
    failures the breaker opens: calls are refused for
    ``recovery_timeout`` seconds, after which **exactly one** probe
    call is let through (half-open); its success recloses the breaker,
    its failure reopens it for another cooldown.

    The single-probe guarantee is lock-guarded: when the cooldown
    expires, concurrent callers race for one half-open trial token and
    only the winner's :meth:`allow` returns True — the rest are
    refused until the probe's outcome is recorded. Without the token a
    thundering herd of callers would all see ``half_open`` and re-slam
    the recovering backend with the very burst the breaker exists to
    prevent.

    Args:
        failure_threshold: consecutive failures that trip the breaker.
        recovery_timeout: open-state cooldown, seconds.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_timeout <= 0:
            raise ValueError(
                f"recovery_timeout must be positive, got {recovery_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_inflight = False
        self.trips = 0

    def _advance_locked(self) -> str:
        """Apply cooldown expiry lazily; caller holds the lock."""
        if (self._state == "open"
                and self._clock() - self._opened_at >= self.recovery_timeout):
            self._state = "half_open"
            self._probe_inflight = False
        return self._state

    @property
    def state(self) -> str:
        """Current state, cooldown expiry applied lazily."""
        with self._lock:
            return self._advance_locked()

    def allow(self) -> bool:
        """Whether a loader call may proceed right now.

        In half-open, True for exactly one caller (the trial probe)
        until :meth:`record_success` / :meth:`record_failure` settles
        the probe's outcome.
        """
        return self.admit()[0]

    def admit(self) -> "tuple[bool, bool]":
        """:meth:`allow`, plus whether this caller now holds the probe.

        Returns ``(allowed, is_probe)``. A caller that was admitted as
        the half-open trial probe owns the probe slot until it settles
        the outcome (:meth:`record_success` / :meth:`record_failure`)
        — or, if it is cancelled before the loader resolves, until it
        releases the slot with :meth:`abort_probe`. Callers that cannot
        be interrupted mid-call may keep using :meth:`allow`;
        cancellable callers (both resilient ladders) must use this form
        so a cancelled probe does not wedge the breaker in half-open
        forever.
        """
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

    def abort_probe(self) -> None:
        """Release a held probe slot without recording an outcome.

        For a probe holder that was cancelled before its loader
        settled: the trial never happened, so the breaker learns
        nothing — the slot simply reopens for the next caller. Without
        this, a cancelled probe would leave ``_probe_inflight`` set and
        every future call refused: an accounting leak with no recovery
        path.
        """
        with self._lock:
            self._probe_inflight = False

    def record_success(self) -> None:
        """Note a successful loader call; recloses a half-open breaker."""
        with self._lock:
            self._failures = 0
            self._state = "closed"
            self._probe_inflight = False

    def record_failure(self) -> None:
        """Note a failed loader call; may trip or re-trip the breaker."""
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


class ResilientKVCache:
    """Retry, circuit-break, stale-serve and quarantine around a cache.

    Args:
        cache: the cache to serve through — an
            :class:`~repro.online.engine.AdaptiveKVCache` or a
            :class:`~repro.online.persistence.PersistentKVCache`
            (detected via its ``cache`` attribute; shard-level probes
            go to the engine, logged operations to the wrapper).
        retry: loader retry schedule; default ``RetryPolicy()``.
        breaker_factory: builds one :class:`CircuitBreaker` per shard;
            default uses the breaker's defaults.
        sleep: backoff sleep function (injectable for tests).
        clock: monotonic time source for the retry budget.
        min_ready_fraction: smallest fraction of unquarantined shards
            for which :meth:`ready` still answers True.
    """

    def __init__(
        self,
        cache,
        retry: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        min_ready_fraction: float = 0.5,
    ):
        if not 0.0 < min_ready_fraction <= 1.0:
            raise ValueError(
                f"min_ready_fraction must be in (0, 1], got "
                f"{min_ready_fraction}"
            )
        self.cache = cache
        self.engine = getattr(cache, "cache", cache)
        # A live-recovering wrapper exposes per-shard readiness; plain
        # caches don't, and every shard counts as serving.
        self._recovery = (
            cache if callable(getattr(cache, "shard_serving", None)) else None
        )
        self.retry = retry if retry is not None else RetryPolicy()
        if breaker_factory is None:
            breaker_factory = CircuitBreaker
        self.breakers = [
            breaker_factory() for _ in range(self.engine.num_shards)
        ]
        self._sleep = sleep
        self._clock = clock
        self.min_ready_fraction = min_ready_fraction
        self._quarantined = set()

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------

    def _shard_index(self, key) -> int:
        return shard_of(key_fingerprint(key), self.engine.num_shards)

    def _shard_recovering(self, index: int) -> bool:
        """Whether ``index``'s shard is still replaying its WAL."""
        return (self._recovery is not None
                and not self._recovery.shard_serving(index))

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------

    def get(self, key, default=None):
        """``get`` with quarantine guarding (a quarantined shard
        answers ``default`` and counts the request as degraded)."""
        index = self._shard_index(key)
        if index in self._quarantined:
            self.engine.shards[index].record_degraded()
            return default
        return self.cache.get(key, default)

    def put(self, key, value, ttl=None, size=None) -> None:
        """``put`` with quarantine guarding (writes to a quarantined
        shard are dropped — its state is suspect until rebuilt)."""
        if self._shard_index(key) in self._quarantined:
            return
        self.cache.put(key, value, ttl=ttl, size=size)

    def delete(self, key) -> bool:
        """``delete`` with quarantine guarding."""
        if self._shard_index(key) in self._quarantined:
            return False
        return self.cache.delete(key)

    def get_or_compute(self, key, loader, ttl=None):
        """The resilient serving ladder (see module docstring).

        Backoff pauses block in the injected ``sleep``. ``loader`` may
        be a coroutine function only if its awaitable completes without
        suspending; one that suspends, or that needs a running event
        loop (``asyncio.sleep`` with a positive delay), is cancelled —
        recording no breaker outcome and releasing a held half-open
        probe — and reported as a :class:`TypeError` (use
        :meth:`aget_or_compute`).

        Raises:
            LoaderUnavailable: the loader could not produce a value
                (failed, skipped by an open breaker, or quarantined)
                and no stale entry was resident to serve instead.
            TypeError: the loader's awaitable suspended.
        """
        index, stale, value = self._plain_rungs(key)
        if value is not _MISSING:
            return value
        load = self._load(key, _loop_free(loader), ttl, index, stale,
                          None, self._blocking_pause)
        try:
            load.send(None)
        except StopIteration as done:
            return done.value
        # Only a loader's awaitable can suspend the load, and nothing
        # here can resume it: cancel, exactly as a cancelled async
        # request would be.
        with contextlib.suppress(asyncio.CancelledError):
            load.throw(asyncio.CancelledError())
        raise TypeError(
            f"loader for key {key!r} suspended; use aget_or_compute"
        )

    async def aget_or_compute(self, key, loader, ttl=None,
                              retry_budget: Optional[RetryBudget] = None):
        """The resilient serving ladder, asynchronously.

        Decision-identical to :meth:`get_or_compute` — both run the
        same rungs and the same loader/retry coroutine — but backoff
        pauses are ``await asyncio.sleep`` (virtual under a
        virtual-time loop) and ``loader`` may be a plain callable or a
        coroutine function, so thousands of requests overlap on one
        event loop.

        Cancellation safety (the accounting audit this path exists
        for): a request cancelled mid-backoff or mid-loader

        * releases its :class:`RetryBudget` token (``finally``), so the
          shared pool cannot leak;
        * records *no* breaker outcome — a cancelled attempt is not a
          backend failure, and counting it would double-charge the
          failure threshold;
        * releases a held half-open probe slot
          (:meth:`CircuitBreaker.abort_probe`), so the breaker cannot
          wedge with a probe owner that no longer exists.

        Args:
            retry_budget: optional shared retry-token pool; when
                exhausted, retries are skipped (the ladder falls
                through to stale/degraded) rather than queued.

        Raises:
            LoaderUnavailable: as :meth:`get_or_compute`.
            asyncio.CancelledError: the caller was cancelled; state is
                consistent as described above.
        """
        index, stale, value = self._plain_rungs(key)
        if value is not _MISSING:
            return value
        return await self._load(key, loader, ttl, index, stale,
                                retry_budget, asyncio.sleep)

    def _plain_rungs(self, key):
        """The quarantine, recovery and hit rungs; no coroutine runs.

        Returns ``(index, stale, value)``: ``value`` is the answer, or
        ``_MISSING`` when the key must be loaded into shard ``index``
        with ``stale`` (a ``peek_stale`` result) as the fallback.
        """
        index = self._shard_index(key)
        shard = self.engine.shards[index]
        if index in self._quarantined:
            return index, None, self._serve_stale(shard, key, None,
                                                  (False, None))
        if self._shard_recovering(index):
            # Never run the loader against a half-replayed shard; the
            # wrapper serves a pending write or stale peek, or refuses.
            return index, None, self.cache.recovering_read(key)
        # Capture any resident value *before* the real lookup: the
        # cache expires lazily, so the get below would destroy an
        # expired entry — the very value stale serving needs later.
        stale = shard.peek_stale(key)
        return index, stale, self.cache.get(key, _MISSING)

    async def _blocking_pause(self, seconds: float) -> None:
        """The sync ladder's backoff: blocks, never suspends."""
        self._sleep(seconds)

    async def _load(self, key, loader, ttl, index, stale, retry_budget,
                    pause):
        """The breaker-guarded loader/retry loop shared by both ladders.

        ``pause`` awaits one backoff delay. Falls through to
        :meth:`_serve_stale` when the breaker refuses or every attempt
        fails.
        """
        shard = self.engine.shards[index]
        breaker = self.breakers[index]
        admitted, probe = breaker.admit()
        if not admitted:
            return self._serve_stale(shard, key, None, stale)

        last_error = None
        started = self._clock()
        delay = self.retry.backoff
        try:
            for attempt in range(self.retry.attempts):
                token = False
                try:
                    if attempt > 0:
                        if (self.retry.budget is not None
                                and self._clock() - started
                                >= self.retry.budget):
                            break
                        if (retry_budget is not None
                                and not retry_budget.try_acquire()):
                            break
                        token = retry_budget is not None
                        if delay > 0:
                            await pause(delay)
                        delay *= self.retry.multiplier
                    try:
                        value = loader(key)
                        if asyncio.iscoroutine(value):
                            value = await value
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:  # noqa: BLE001 — loader boundary
                        last_error = error
                        breaker.record_failure()
                        admitted, probe = breaker.admit()
                        if not admitted:
                            break
                        continue
                    breaker.record_success()
                    probe = False
                    self.cache.put(key, value, ttl=ttl)
                    return value
                finally:
                    if token:
                        retry_budget.release()
        except asyncio.CancelledError:
            if probe:
                breaker.abort_probe()
            raise
        return self._serve_stale(shard, key, last_error, stale)

    def _serve_stale(self, shard, key, error, stale):
        """Stale fallback, else count degraded and raise.

        ``stale`` is a pre-captured ``peek_stale`` result.
        """
        found, value = stale
        if found:
            shard.record_stale_serve()
            return value
        shard.record_degraded()
        raise LoaderUnavailable(
            f"loader unavailable for key {key!r} and no stale entry resident"
        ) from error

    # ------------------------------------------------------------------
    # Quarantine and health
    # ------------------------------------------------------------------

    def quarantine(self, index: int) -> None:
        """Take shard ``index`` out of service."""
        if not 0 <= index < self.engine.num_shards:
            raise IndexError(f"shard index {index} out of range")
        self._quarantined.add(index)

    def rebuild(self, index: int, shard_state: Optional[dict] = None) -> None:
        """Swap in a fresh shard and return it to service.

        Args:
            index: the quarantined shard.
            shard_state: optional shard entry from a persisted
                snapshot's ``"shards"`` list
                (:func:`repro.online.persistence.read_snapshot`) to
                restore instead of starting empty.
        """
        self.engine.rebuild_shard(index, shard_state)
        self._quarantined.discard(index)

    def quarantined(self) -> frozenset:
        """Indices of shards currently out of service."""
        return frozenset(self._quarantined)

    def health(self) -> dict:
        """Liveness/degradation probe: per-shard breaker and quarantine
        state plus the engine's merged counters."""
        stats = self.cache.stats()
        return {
            "shards": [
                {
                    "breaker": breaker.state,
                    "trips": breaker.trips,
                    "quarantined": index in self._quarantined,
                }
                for index, breaker in enumerate(self.breakers)
            ],
            "quarantined": sorted(self._quarantined),
            "stale_hits": stats.stale_hits,
            "degraded": stats.degraded,
            "recovering": (self._recovery is not None
                           and self._recovery.recovering),
            "serving_fraction": self.serving_fraction(),
            "ready": self.ready(),
        }

    def serving_fraction(self) -> float:
        """Fraction of shards serving normally, 0.0..1.0.

        A shard is serving when it is neither quarantined nor still
        replaying its WAL prefix during live recovery. The serving
        front scales its admission bound by this number, shedding
        early while capacity is genuinely reduced.
        """
        num_shards = self.engine.num_shards
        if self._recovery is None:
            return (num_shards - len(self._quarantined)) / num_shards
        serving = sum(
            1
            for index in range(num_shards)
            if index not in self._quarantined
            and self._recovery.shard_serving(index)
        )
        return serving / num_shards

    def ready(self) -> bool:
        """Readiness probe: enough shards in service to take traffic."""
        return self.serving_fraction() >= self.min_ready_fraction

    # ------------------------------------------------------------------
    # Passthrough
    # ------------------------------------------------------------------

    def stats(self):
        """The wrapped cache's merged counter snapshot."""
        return self.cache.stats()

    def __contains__(self, key) -> bool:
        """Residency probe (quarantined shards report absent)."""
        if self._shard_index(key) in self._quarantined:
            return False
        return key in self.cache

    def __len__(self) -> int:
        """Resident entries across shards (quarantined included)."""
        return len(self.cache)


def _loop_free(loader):
    """``loader`` as the sync ladder runs it, outside any event loop.

    An awaitable that raises "no running event loop" cannot complete
    here, exactly like one that suspends, and is no backend failure:
    it is turned into a suspension, which :meth:`get_or_compute`
    cancels and reports, so the breaker never sees it.
    """
    def load(key):
        value = loader(key)
        if asyncio.iscoroutine(value):
            return _await_loop_free(value)
        return value

    return load


async def _await_loop_free(awaitable):
    try:
        return await awaitable
    except RuntimeError as error:
        if "no running event loop" not in str(error):
            raise
    await asyncio.sleep(0)  # suspend: get_or_compute cancels the load
