"""Serving-stack construction for the SLO harness.

One :class:`RegimePlan` describes a regime as inert data; the builders
here turn it into the stack the harness drives — engine, loader, the
resilient ladder or the near/far tiered front, and the admission
front. The recovery regime gets its own builder pair:
:func:`seed_persistent` writes the crash-point state and
:func:`build_recovery_stack` reopens it as a
:class:`~repro.online.liverecovery.LiveRecoveringKVCache` to be
replayed *under traffic*. The measurement loop and reports live in
:mod:`repro.serve.harness`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Tuple

from repro.faults.online import AsyncFlakyLoader
from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import LiveRecoveringKVCache
from repro.online.persistence import PersistentKVCache
from repro.online.resilience import (
    CircuitBreaker,
    LoaderUnavailable,
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


@dataclass(frozen=True)
class RegimePlan:
    """One serving regime, as inert data.

    Attributes:
        name: regime label (report key).
        spec: the open-loop request stream.
        warmup: seconds of traffic before measurement starts (cache
            fill; excluded from every reported number).
        duration: measured seconds.
        concurrency: parallel service slots.
        max_pending: in-flight bound (arrivals beyond it are shed).
        deadline: per-request sojourn deadline, seconds.
        service_time: in-slot cost paid by every request (hit or miss).
        miss_latency: backend service time awaited per loader call.
        spike_latency / spike_rate: extra seeded latency spikes.
        failure_rate / burst: seeded loader failures (brown-outs).
        capacity_entries / num_shards / components: engine geometry.
        ttl: entry TTL, seconds (None = no expiry; the degraded regime
            needs one so stale serving is reachable).
        retry_attempts / retry_backoff / retry_budget_tokens: the
            retry schedule and the shared retry-token pool.
        breaker_threshold / breaker_timeout: per-shard breaker tuning.
        quarantine_shards / quarantine_at / rebuild_at: the chaos
            schedule — shards taken out of service at ``quarantine_at``
            (virtual seconds from stream start) and rebuilt empty at
            ``rebuild_at``.
        front: ``"resilient"`` (the default stack) or ``"tiered"``
            (the near/far :func:`~repro.tiers.kv.tiered_front` behind
            the same admission front).
        near_capacity: near-shard entry capacity for the tiered front.
        recover_ops: when > 0 this is a *recovery* regime — a
            persistent cache is seeded with this many requests from the
            stream's own prefix, killed, and restarted through live WAL
            replay while the stream serves. Recovery plans should keep
            ``ttl=None`` and ``failure_rate=0`` so the end-of-regime
            digest check against stop-the-world recovery is exact
            (stale serving and degradation mutate engine counters the
            reference replay never sees).
        replay_chunk_ops / replay_interval: WAL records replayed per
            background step, and the virtual seconds between steps.
        seed: master seed (stream and loader fork from it).
    """

    name: str
    spec: StreamSpec
    warmup: float = 1.0
    duration: float = 3.0
    concurrency: int = 8
    max_pending: Optional[int] = 256
    deadline: Optional[float] = 0.1
    service_time: float = 0.001
    miss_latency: float = 0.005
    spike_latency: float = 0.0
    spike_rate: float = 0.0
    failure_rate: float = 0.0
    burst: int = 0
    capacity_entries: int = 256
    num_shards: int = 8
    components: Tuple[str, ...] = ("lru", "lfu")
    ttl: Optional[float] = None
    retry_attempts: int = 3
    retry_backoff: float = 0.005
    retry_budget_tokens: Optional[int] = 32
    breaker_threshold: int = 5
    breaker_timeout: float = 0.5
    quarantine_shards: Tuple[int, ...] = ()
    quarantine_at: Optional[float] = None
    rebuild_at: Optional[float] = None
    front: str = "resilient"
    near_capacity: int = 64
    recover_ops: int = 0
    replay_chunk_ops: int = 200
    replay_interval: float = 0.04
    seed: int = 0


def default_plans(quick: bool = False, seed: int = 0) -> List[RegimePlan]:
    """The five standard regimes, at bench (full) or CI (quick) scale.

    Capacity with the default knobs is roughly
    ``concurrency / (service_time + miss_ratio * miss_latency)`` ~= a
    few thousand requests/second; steady offers well under half of it,
    overload several times it.
    """
    warmup = 1.0 if quick else 2.0
    duration = 1.5 if quick else 5.0
    steady = RegimePlan(
        name="steady",
        spec=StreamSpec(rate=1500.0, universe=512, alpha=1.0, mix="B",
                        clients=16, seed=seed),
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
        spec=StreamSpec(rate=2500.0, universe=512, alpha=1.0, mix="C",
                        clients=16, process="mmpp", burst_rate=8000.0,
                        mean_dwell=1.0, burst_dwell=0.5, seed=seed + 1),
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
        spec=StreamSpec(rate=1500.0, universe=512, alpha=1.0, mix="B",
                        clients=16, seed=seed + 2),
        warmup=warmup,
        duration=duration,
        concurrency=8,
        max_pending=256,
        deadline=0.1,
        failure_rate=0.15,
        burst=6,
        ttl=1.0,
        retry_budget_tokens=4,
        breaker_threshold=5,
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
        spec=StreamSpec(rate=1500.0, universe=512, alpha=1.0, mix="B",
                        clients=16, seed=seed + 3),
        warmup=0.0,
        duration=duration,
        concurrency=8,
        max_pending=256,
        deadline=0.1,
        ttl=None,
        failure_rate=0.0,
        recover_ops=3000 if quick else 8000,
        replay_chunk_ops=200,
        replay_interval=0.04,
        seed=seed + 3,
    )
    steady_tiered = RegimePlan(
        name="steady_tiered",
        spec=StreamSpec(rate=1500.0, universe=512, alpha=1.0, mix="B",
                        clients=16, seed=seed + 4),
        warmup=warmup,
        duration=duration,
        concurrency=8,
        max_pending=256,
        deadline=0.1,
        spike_latency=0.04,
        spike_rate=0.02,
        front="tiered",
        near_capacity=64,
        seed=seed + 4,
    )
    return [steady, overload, degraded, recovery, steady_tiered]


class _TieredResilient:
    """Adapts a :class:`~repro.tiers.kv.TieredKVCache` to the
    :class:`~repro.online.contract.AsyncKVStore` surface
    :class:`~repro.serve.front.AsyncServingFront` serves through.

    Probe the topology; on a total miss await the loader and write the
    value through (placement decides which tiers keep a copy). Loader
    failures surface as :class:`LoaderUnavailable` — the tier walk has
    no retry/stale ladder of its own.
    """

    def __init__(self, tiered):
        self.tiered = tiered
        self.breakers = ()

    async def aget_or_compute(self, key, loader, ttl=None,
                              retry_budget=None):
        result = self.tiered.get_detailed(key)
        if result.found:
            return result.value
        try:
            value = loader(key)
            if inspect.iscoroutine(value):
                value = await value
        except Exception as error:  # noqa: BLE001 — loader boundary
            raise LoaderUnavailable(
                f"loader failed for key {key!r} behind the tiered front"
            ) from error
        self.tiered.put(key, value)
        return value

    def put(self, key, value, ttl=None, size=None) -> None:
        self.tiered.put(key, value)

    def serving_fraction(self) -> float:
        """Every tier is always in service: admission is never scaled."""
        return 1.0

    def stats(self):
        """Counter view shaped like the resilient stack's stats."""
        raw = self.tiered.stats()
        return SimpleNamespace(
            gets=raw["gets"],
            hits=raw["tier_hits"],
            stale_hits=0,
        )


def _build_engine(plan: RegimePlan, clock) -> AdaptiveKVCache:
    return AdaptiveKVCache(
        capacity_entries=plan.capacity_entries,
        num_shards=plan.num_shards,
        components=plan.components,
        default_ttl=plan.ttl,
        seed=plan.seed,
        clock=clock,
    )


def _build_loader(plan: RegimePlan) -> AsyncFlakyLoader:
    return AsyncFlakyLoader(
        backend_value,
        base_latency=plan.miss_latency,
        failure_rate=plan.failure_rate,
        burst=plan.burst,
        latency=plan.spike_latency,
        latency_rate=plan.spike_rate,
        seed=plan.seed + 13,
    )


def _resilient_over(cache, plan: RegimePlan, clock) -> ResilientKVCache:
    return ResilientKVCache(
        cache,
        retry=RetryPolicy(
            attempts=plan.retry_attempts,
            backoff=plan.retry_backoff,
            budget=plan.deadline,
        ),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=plan.breaker_threshold,
            recovery_timeout=plan.breaker_timeout,
            clock=clock,
        ),
        clock=clock,
    )


def _front_over(resilient, plan: RegimePlan) -> Tuple[
        AsyncServingFront, Optional[RetryBudget]]:
    budget = (
        RetryBudget(plan.retry_budget_tokens)
        if plan.retry_budget_tokens is not None else None
    )
    front = AsyncServingFront(
        resilient,
        concurrency=plan.concurrency,
        max_pending=plan.max_pending,
        deadline=plan.deadline,
        retry_budget=budget,
        service_time=plan.service_time,
    )
    return front, budget


def build_stack(plan: RegimePlan, clock) -> Tuple[
        AsyncServingFront, AsyncFlakyLoader, Optional[RetryBudget]]:
    """The serving stack (front, loader, budget) for one plan.

    ``plan.front == "tiered"`` swaps the resilient ladder for the
    near/far :func:`~repro.tiers.kv.tiered_front` behind the same
    admission front; recovery plans are built by
    :func:`build_recovery_stack` instead.
    """
    engine = _build_engine(plan, clock)
    if plan.front == "tiered":
        resilient = _TieredResilient(tiered_front(
            engine,
            near_capacity=plan.near_capacity,
            far_capacity=plan.capacity_entries,
            seed=plan.seed,
        ))
    elif plan.front == "resilient":
        resilient = _resilient_over(engine, plan, clock)
    else:
        raise ValueError(f"unknown front kind {plan.front!r}")
    loader = _build_loader(plan)
    front, budget = _front_over(resilient, plan)
    return front, loader, budget


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


def build_recovery_stack(plan: RegimePlan, clock, directory: str) -> Tuple[
        AsyncServingFront, AsyncFlakyLoader, Optional[RetryBudget],
        LiveRecoveringKVCache]:
    """The recovery-regime stack: seed, crash, reopen live.

    Returns ``(front, loader, budget, live)`` — the extra handle is the
    :class:`LiveRecoveringKVCache` the background replay task steps.
    """
    if plan.recover_ops <= 0:
        raise ValueError("recovery stack needs recover_ops > 0")
    seed_persistent(plan, directory, clock)
    live = LiveRecoveringKVCache(
        directory,
        chunk_ops=plan.replay_chunk_ops,
        snapshot_every=None,
        wal_flush_ops=1,
        clock=clock,
    )
    resilient = _resilient_over(live, plan, clock)
    loader = _build_loader(plan)
    front, budget = _front_over(resilient, plan)
    return front, loader, budget, live
