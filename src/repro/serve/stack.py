"""Serving-stack construction for the SLO harness.

One :class:`RegimePlan` describes a regime as inert data;
:func:`build_stack` turns it into the stack the harness drives: one
resilient ladder over one cache, behind the admission front, plus the
loader. The cache is the engine, :func:`~repro.tiers.kv.tiered_front`
over it, or — for the recovery regime — the state
:func:`seed_persistent` wrote, reopened as a
:class:`~repro.online.liverecovery.LiveRecoveringKVCache` to be
replayed *under traffic*. The measurement loop and reports live in
:mod:`repro.serve.harness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.online import AsyncFlakyLoader
from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import LiveRecoveringKVCache
from repro.online.persistence import PersistentKVCache
from repro.online.resilience import (
    CircuitBreaker,
    ResilientKVCache,
    RetryBudget,
    RetryPolicy,
)
from repro.serve.front import AsyncServingFront
from repro.tiers.kv import tiered_front
from repro.workloads.keystreams import StreamSpec


def backend_value(key):
    """The deterministic backend: ground truth per key.

    Stale serves return an *old* value of the same key; with a
    deterministic backend old values equal current ones, so any
    mismatch a regime observes is a genuine wrong value (a lie), never
    mere staleness — the invariant ``wrong_values == 0`` rests on this.
    """
    return ("v", key)


#: Entries of every regime's engine (and of the tiered front's far tier).
CAPACITY_ENTRIES = 256
#: In-slot cost, seconds, paid by every request (hit or miss).
SERVICE_TIME = 0.001
#: Backend service time, seconds, awaited per loader call.
MISS_LATENCY = 0.005
#: Entries of the tiered front's near shard.
NEAR_CAPACITY = 64
#: WAL records a recovery regime replays per background step, and the
#: virtual seconds between steps.
REPLAY_CHUNK_OPS = 200
REPLAY_INTERVAL = 0.04


@dataclass(frozen=True)
class RegimePlan:
    """One serving regime, as inert data.

    Every regime serves from a :data:`CAPACITY_ENTRIES`-entry adaptive
    engine (the engine's default 8 shards, LRU and LFU components), pays
    :data:`SERVICE_TIME` in its slot per request and :data:`MISS_LATENCY`
    per loader call, retries a failed load up to 3 attempts with a
    5 ms backoff, and opens a shard's breaker after the breaker's
    default 5 consecutive failures. A tiered front's near shard holds
    :data:`NEAR_CAPACITY` entries; a recovery regime
    replays :data:`REPLAY_CHUNK_OPS` WAL records every
    :data:`REPLAY_INTERVAL` virtual seconds.

    Attributes:
        name: regime label (report key).
        spec: the open-loop request stream.
        warmup: seconds of traffic before measurement starts (cache
            fill; excluded from every reported number).
        duration: measured seconds.
        concurrency: parallel service slots.
        max_pending: in-flight bound (arrivals beyond it are shed).
        deadline: per-request sojourn deadline, seconds.
        spike_latency / spike_rate: extra seeded latency spikes.
        failure_rate / burst: seeded loader failures (brown-outs).
        ttl: entry TTL, seconds (None = no expiry; the degraded regime
            needs one so stale serving is reachable).
        retry_budget_tokens: the shared retry-token pool.
        breaker_timeout: per-shard breaker cooldown, seconds.
        quarantine_shards / quarantine_at / rebuild_at: the chaos
            schedule — shards taken out of service at ``quarantine_at``
            (virtual seconds from stream start) and rebuilt empty at
            ``rebuild_at``.
        front: ``"resilient"`` (the ladder over the engine, the
            default) or ``"tiered"`` (the ladder over the near/far
            :func:`~repro.tiers.kv.tiered_front` of the engine).
        recover_ops: when > 0 this is a *recovery* regime — a
            persistent cache is seeded with this many requests from the
            stream's own prefix, killed, and restarted through live WAL
            replay while the stream serves. Recovery plans should keep
            ``ttl=None`` and ``failure_rate=0`` so the end-of-regime
            digest check against stop-the-world recovery is exact
            (stale serving and degradation mutate engine counters the
            reference replay never sees).
        seed: master seed (stream and loader fork from it).
    """

    name: str
    spec: StreamSpec
    warmup: float = 1.0
    duration: float = 3.0
    concurrency: int = 8
    max_pending: Optional[int] = 256
    deadline: Optional[float] = 0.1
    spike_latency: float = 0.0
    spike_rate: float = 0.0
    failure_rate: float = 0.0
    burst: int = 0
    ttl: Optional[float] = None
    retry_budget_tokens: Optional[int] = 32
    breaker_timeout: float = 0.5
    quarantine_shards: Tuple[int, ...] = ()
    quarantine_at: Optional[float] = None
    rebuild_at: Optional[float] = None
    front: str = "resilient"
    recover_ops: int = 0
    seed: int = 0


def default_plans(quick: bool = False, seed: int = 0) -> List[RegimePlan]:
    """The five standard regimes, at bench (full) or CI (quick) scale.

    Capacity with the default knobs is roughly
    ``concurrency / (SERVICE_TIME + miss_ratio * MISS_LATENCY)`` ~= a
    few thousand requests/second; steady offers well under half of it,
    overload several times it.
    """
    warmup = 1.0 if quick else 2.0
    duration = 1.5 if quick else 5.0
    steady = RegimePlan(
        name="steady",
        spec=StreamSpec(rate=1500.0, mix="B", clients=16, seed=seed),
        warmup=warmup,
        duration=duration,
        concurrency=8,
        max_pending=256,
        deadline=0.1,
        spike_latency=0.04,
        spike_rate=0.02,
        seed=seed,
    )
    overload = RegimePlan(
        name="overload",
        spec=StreamSpec(rate=2500.0, mix="C", clients=16, process="mmpp",
                        burst_rate=8000.0, mean_dwell=1.0, seed=seed + 1),
        warmup=warmup,
        duration=duration,
        concurrency=4,
        max_pending=64,
        deadline=0.05,
        spike_latency=0.05,
        spike_rate=0.05,
        seed=seed + 1,
    )
    chaos_at = warmup + 0.2 * duration
    rebuild_at = warmup + 0.7 * duration
    degraded = RegimePlan(
        name="degraded",
        spec=StreamSpec(rate=1500.0, mix="B", clients=16, seed=seed + 2),
        warmup=warmup,
        duration=duration,
        concurrency=8,
        max_pending=256,
        deadline=0.1,
        failure_rate=0.15,
        burst=6,
        ttl=1.0,
        retry_budget_tokens=4,
        breaker_timeout=0.25,
        quarantine_shards=(1, 5),
        quarantine_at=chaos_at,
        rebuild_at=rebuild_at,
        seed=seed + 2,
    )
    # Sized so replay (~chunk/interval records per virtual second)
    # finishes inside the measured window: the report sees both the
    # degraded replay phase and the recovered steady state.
    recovery = RegimePlan(
        name="recovery",
        spec=StreamSpec(rate=1500.0, mix="B", clients=16, seed=seed + 3),
        warmup=0.0,
        duration=duration,
        concurrency=8,
        max_pending=256,
        deadline=0.1,
        ttl=None,
        failure_rate=0.0,
        recover_ops=3000 if quick else 8000,
        seed=seed + 3,
    )
    steady_tiered = RegimePlan(
        name="steady_tiered",
        spec=StreamSpec(rate=1500.0, mix="B", clients=16, seed=seed + 4),
        warmup=warmup,
        duration=duration,
        concurrency=8,
        max_pending=256,
        deadline=0.1,
        spike_latency=0.04,
        spike_rate=0.02,
        front="tiered",
        seed=seed + 4,
    )
    return [steady, overload, degraded, recovery, steady_tiered]


def _build_engine(plan: RegimePlan, clock) -> AdaptiveKVCache:
    return AdaptiveKVCache(
        capacity_entries=CAPACITY_ENTRIES,
        default_ttl=plan.ttl,
        seed=plan.seed,
        clock=clock,
    )


def _build_loader(plan: RegimePlan) -> AsyncFlakyLoader:
    return AsyncFlakyLoader(
        backend_value,
        base_latency=MISS_LATENCY,
        failure_rate=plan.failure_rate,
        burst=plan.burst,
        latency=plan.spike_latency,
        latency_rate=plan.spike_rate,
        seed=plan.seed + 13,
    )


def _resilient_over(cache, plan: RegimePlan, clock) -> ResilientKVCache:
    return ResilientKVCache(
        cache,
        retry=RetryPolicy(backoff=0.005, budget=plan.deadline),
        breaker_factory=lambda: CircuitBreaker(
            recovery_timeout=plan.breaker_timeout, clock=clock
        ),
        clock=clock,
    )


def build_stack(plan: RegimePlan, clock,
                directory: Optional[str] = None) -> Tuple[
        AsyncServingFront, AsyncFlakyLoader, Optional[RetryBudget],
        Optional[LiveRecoveringKVCache]]:
    """The serving stack ``(front, loader, budget, live)`` for one plan.

    Every regime is one resilient ladder over one cache: the engine,
    or :func:`~repro.tiers.kv.tiered_front` over it when
    ``plan.front == "tiered"``. A recovery plan (``recover_ops > 0``)
    seeds ``directory`` with :func:`seed_persistent`, then reopens it
    as a :class:`LiveRecoveringKVCache`; that cache is returned as
    ``live``, the handle the background replay task steps (None for
    every other plan).
    """
    if plan.front not in ("resilient", "tiered"):
        raise ValueError(f"unknown front kind {plan.front!r}")
    live = None
    if plan.recover_ops > 0:
        if directory is None:
            raise ValueError("a recovery plan needs a directory")
        seed_persistent(plan, directory, clock)
        cache = live = LiveRecoveringKVCache(
            directory,
            chunk_ops=REPLAY_CHUNK_OPS,
            snapshot_every=None,
            wal_flush_ops=1,
            clock=clock,
        )
    else:
        cache = _build_engine(plan, clock)
        if plan.front == "tiered":
            cache = tiered_front(
                cache,
                near_capacity=NEAR_CAPACITY,
                far_capacity=CAPACITY_ENTRIES,
                seed=plan.seed,
            )
    budget = (
        RetryBudget(plan.retry_budget_tokens)
        if plan.retry_budget_tokens is not None else None
    )
    front = AsyncServingFront(
        _resilient_over(cache, plan, clock),
        concurrency=plan.concurrency,
        max_pending=plan.max_pending,
        deadline=plan.deadline,
        retry_budget=budget,
        service_time=SERVICE_TIME,
    )
    return front, _build_loader(plan), budget, live


def seed_persistent(plan: RegimePlan, directory: str, clock) -> int:
    """Seed ``directory`` with the stream's first ``recover_ops``
    requests through a :class:`PersistentKVCache`, then close it — the
    crash point live recovery restarts from. Returns the op count."""
    seeded = PersistentKVCache(
        _build_engine(plan, clock),
        directory,
        snapshot_every=None,  # leave the whole prefix in the WAL
        wal_flush_ops=1,
    )
    count = 0
    for request in plan.spec.requests():
        if count >= plan.recover_ops:
            break
        if request.op == "read":
            seeded.get_or_compute(request.key, backend_value)
        else:
            seeded.put(request.key, backend_value(request.key))
        count += 1
    seeded.close()
    return count
