"""Chaos campaigns against the online serving stack.

The simulator-side fault model (:mod:`repro.faults.plan`) corrupts the
adaptive machinery's auxiliary state; this module attacks the *online*
layers added around the engine instead:

* **Loader faults** — :class:`FlakyLoader` wraps a backend loader with
  seeded exceptions and latency spikes, exercising the retry /
  circuit-breaker / stale-serve ladder of
  :class:`~repro.online.resilience.ResilientKVCache`.
* **Torn writes** — :func:`torn_write` shears or flips bytes at seeded
  offsets of a persistence file, modelling a crash mid-append; the WAL
  reader must truncate-and-continue.
* **Kill points** — :func:`chaos_campaign` kills a
  :class:`~repro.online.persistence.PersistentKVCache` at seeded
  operation indices (including exactly at snapshot rotation, the
  fragile window) by abandoning it un-flushed, then recovers and
  resumes from wherever the persisted prefix ends.

The campaign's verdict (:class:`ChaosReport`) checks the two
invariants the robustness story rests on: the recovered run is
*decision-identical* to an uninterrupted one (same merged stats after
the full stream), and the Appendix's 2x miss bound still holds on the
recovered engine's shard counters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.history import CounterHistory
from repro.core.theory import BoundReport
from repro.online.engine import AdaptiveKVCache
from repro.online.persistence import PersistentKVCache, recover
from repro.online.resilience import (
    CircuitBreaker,
    LoaderUnavailable,
    ResilientKVCache,
    RetryPolicy,
)
from repro.utils.rng import DeterministicRNG


class FlakyLoader:
    """A backend loader with seeded failures and latency spikes.

    Args:
        base: the real loader ``key -> value``.
        failure_rate: probability a call raises :class:`IOError`.
        burst: once a failure fires, how many *further* consecutive
            calls also fail (models a backend brown-out rather than
            independent coin flips).
        latency: seconds of delay injected per call (via ``sleep``).
        latency_rate: probability a call pays ``latency``.
        seed: deterministic seed; identical seeds give identical
            failure/latency sequences.
        sleep: sleep function (inject a virtual clock in tests).
    """

    def __init__(
        self,
        base: Callable,
        failure_rate: float = 0.2,
        burst: int = 0,
        latency: float = 0.0,
        latency_rate: float = 0.0,
        seed: int = 0,
        sleep: Callable[[float], None] = None,
    ):
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0,1], got {failure_rate}")
        if not 0.0 <= latency_rate <= 1.0:
            raise ValueError(f"latency_rate must be in [0,1], got {latency_rate}")
        if burst < 0:
            raise ValueError(f"burst must be >= 0, got {burst}")
        self.base = base
        self.failure_rate = failure_rate
        self.burst = burst
        self.latency = latency
        self.latency_rate = latency_rate
        self._sleep = sleep
        self._rng = DeterministicRNG(seed)
        self._burst_left = 0
        self.calls = 0
        self.failures = 0

    def _decide(self, key):
        """Draw one call's fate: ``(delay_seconds, error_or_None)``.

        Shared by the sync and async call paths so both consume the
        seeded stream identically — a plan replayed through either
        loader makes the same injection decisions.
        """
        self.calls += 1
        delay = 0.0
        if self.latency > 0 and self._rng.random() < self.latency_rate:
            delay = self.latency
        if self._burst_left > 0:
            self._burst_left -= 1
            self.failures += 1
            return delay, IOError(f"injected burst failure for {key!r}")
        if self._rng.random() < self.failure_rate:
            self._burst_left = self.burst
            self.failures += 1
            return delay, IOError(f"injected failure for {key!r}")
        return delay, None

    def __call__(self, key):
        """One loader call; may raise ``IOError`` or inject latency."""
        if self._sleep is not None and self.latency > 0:
            delay, error = self._decide(key)
            if delay > 0:
                self._sleep(delay)
        else:
            # No sleep injected: latency decisions still consume the
            # stream only when latency is configured (original
            # behavior: the latency draw is skipped entirely).
            saved_latency = self.latency
            if self._sleep is None:
                self.latency = 0.0
            try:
                delay, error = self._decide(key)
            finally:
                self.latency = saved_latency
        if error is not None:
            raise error
        return self.base(key)


class AsyncFlakyLoader(FlakyLoader):
    """A :class:`FlakyLoader` whose latency is *awaited*, not slept.

    The open-loop serving harness (:mod:`repro.serve`) models backend
    service time as awaitable delay on the event loop — under a
    virtual-time loop, thousands of loader calls overlap without real
    elapsed time. Failure/burst decisions reuse the seeded
    :meth:`FlakyLoader._decide` stream, so a chaos plan drives the
    async ladder exactly as it drives the sync one.

    Args:
        base: the real loader ``key -> value`` (plain callable).
        base_latency: seconds awaited on *every* call (the backend's
            service time); the inherited ``latency``/``latency_rate``
            model extra spikes on top.
        (remaining args as :class:`FlakyLoader`)
    """

    def __init__(self, base, base_latency: float = 0.0, **kwargs):
        if base_latency < 0:
            raise ValueError(
                f"base_latency must be >= 0, got {base_latency}"
            )
        super().__init__(base, **kwargs)
        self.base_latency = base_latency

    async def __call__(self, key):  # type: ignore[override]
        """One awaited loader call; may raise ``IOError``."""
        import asyncio

        delay, error = self._decide(key)
        delay += self.base_latency
        if delay > 0:
            await asyncio.sleep(delay)
        if error is not None:
            raise error
        return self.base(key)


def torn_write(path: str, rng: DeterministicRNG, max_shear: int = 24,
               flip_byte: bool = False) -> int:
    """Damage a file's tail at a seeded offset (crash-mid-append model).

    Shears 1..``max_shear`` bytes off the end; with ``flip_byte`` the
    new last byte is additionally XOR-flipped, so the damage is a CRC
    violation rather than a clean truncation.

    Returns:
        Bytes sheared (0 if the file was empty or missing).
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return 0
    if size == 0:
        return 0
    shear = min(size, 1 + rng.choice_index(max_shear))
    with open(path, "r+b") as handle:
        handle.truncate(size - shear)
        if flip_byte and size - shear > 0:
            handle.seek(size - shear - 1)
            byte = handle.read(1)
            handle.seek(size - shear - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
    return shear


def newest_wal(directory: str) -> Optional[str]:
    """Path of the highest-generation WAL file, or None."""
    best = None
    best_gen = -1
    for name in os.listdir(directory):
        if name.startswith("wal-") and name.endswith(".log"):
            try:
                gen = int(name[4:-4])
            except ValueError:
                continue
            if gen > best_gen:
                best_gen = gen
                best = os.path.join(directory, name)
    return best


@dataclass(frozen=True)
class ChaosPlan:
    """One chaos campaign, as inert data (mirrors ``FaultPlan``).

    Attributes:
        ops: length of the key stream.
        hot_keys: working-set size of the stream's hot region.
        capacity_entries: engine capacity.
        num_shards: engine shard count.
        components: adaptive component policies.
        crashes: operation indices at which the cache is killed.
        torn: whether each crash also tears the newest WAL's tail.
        snapshot_every: snapshot cadence of the persistent wrapper.
        wal_flush_ops: WAL flush cadence (crashes lose the unflushed
            window; the campaign resumes from the persisted prefix).
        failure_rate: loader failure probability in the serving phase.
        burst: consecutive-failure burst length in the serving phase.
        seed: master seed for streams, tears and loader faults.
    """

    ops: int = 1500
    hot_keys: int = 96
    capacity_entries: int = 64
    num_shards: int = 4
    components: Tuple[str, ...] = ("lru", "lfu")
    crashes: Tuple[int, ...] = ()
    torn: bool = True
    snapshot_every: int = 400
    wal_flush_ops: int = 8
    failure_rate: float = 0.25
    burst: int = 2
    seed: int = 0

    @classmethod
    def seeded(cls, seed: int, num_crashes: int = 3, **overrides
               ) -> "ChaosPlan":
        """Place ``num_crashes`` kills at seeded offsets, one of them
        pinned to a snapshot-rotation boundary (the fragile window)."""
        base = cls(seed=seed, **overrides)
        rng = DeterministicRNG(seed).fork(101)
        crashes = set()
        if num_crashes > 0 and base.ops > base.snapshot_every:
            # Rotation happens while logging op snapshot_every-1 (the
            # counter reaches the cadence); kill right after it.
            crashes.add(base.snapshot_every)
        while len(crashes) < num_crashes:
            crashes.add(1 + rng.choice_index(max(base.ops - 1, 1)))
        return cls(
            seed=seed,
            crashes=tuple(sorted(crashes)),
            **overrides,
        )


@dataclass
class ChaosReport:
    """What a chaos campaign observed and whether invariants held.

    Attributes:
        ops: operations in the stream.
        crashes: kills performed.
        torn_events: WAL tails damaged.
        replayed_ops: operations re-issued after recoveries (lost to
            unflushed buffers or torn tails).
        decisions_match: recovered final stats equal the uninterrupted
            reference run's (decision identity).
        bound: the 2x miss-bound report on the recovered engine.
        serving_requests: requests in the flaky-loader phase.
        stale_serves: expired entries served while the loader failed.
        degraded_denials: requests with neither loader nor stale value.
        wrong_values: served values that did not match the backend's
            ground truth (must be zero — staleness is allowed, lies are
            not).
        breaker_trips: circuit-breaker trips across shards.
    """

    ops: int = 0
    crashes: int = 0
    torn_events: int = 0
    replayed_ops: int = 0
    decisions_match: bool = False
    bound: Optional[BoundReport] = None
    serving_requests: int = 0
    stale_serves: int = 0
    degraded_denials: int = 0
    wrong_values: int = 0
    breaker_trips: int = 0

    def ok(self) -> bool:
        """All invariants held: identity, miss bound, no wrong values."""
        return (
            self.decisions_match
            and self.bound is not None
            and self.bound.holds()
            and self.wrong_values == 0
        )


def chaos_stream(plan: ChaosPlan) -> List[int]:
    """The campaign's deterministic key stream.

    Alternates a hot-region phase (reuse-heavy, favours recency) with a
    scan phase (fresh keys mixed with one pinned hot key, favours
    frequency), so the adaptive components actually disagree and the
    bound check is not vacuous.
    """
    rng = DeterministicRNG(plan.seed).fork(7)
    keys: List[int] = []
    cold = plan.hot_keys
    phase = plan.hot_keys * 2
    for index in range(plan.ops):
        if (index // phase) % 2 == 0:
            keys.append(rng.choice_index(plan.hot_keys))
        elif index % 3 == 0:
            keys.append(0)
        else:
            cold += 1
            keys.append(cold)
    return keys


def _bound_engine(plan: ChaosPlan) -> AdaptiveKVCache:
    """An engine in the bound-checkable configuration (counter
    histories, full fingerprints — exact shadow directories)."""
    return AdaptiveKVCache(
        capacity_entries=plan.capacity_entries,
        num_shards=plan.num_shards,
        policy="adaptive",
        components=plan.components,
        partial_bits=None,
        history_factory=lambda n: CounterHistory(n),
        seed=plan.seed,
    )


def _fill(key):
    """The campaign's deterministic backend: ground truth per key."""
    return key * 2 + 1


def chaos_campaign(plan: ChaosPlan, directory: str) -> ChaosReport:
    """Run the full campaign; see the module docstring for the model.

    Phase 1 (durability): drive the key stream through a persistent
    cache, killing and recovering at the plan's crash points, then
    check decision identity against an uninterrupted reference and the
    2x miss bound on the recovered engine.

    Phase 2 (serving): replay the stream through a resilient cache
    whose loader fails per the plan, under a virtual clock; check that
    every answer matches the backend's ground truth (stale answers are
    ground truth too — the backend is deterministic).
    """
    report = ChaosReport(ops=plan.ops)
    keys = chaos_stream(plan)
    tear_rng = DeterministicRNG(plan.seed).fork(31)

    reference = _bound_engine(plan)
    for key in keys:
        reference.get_or_compute(key, _fill)
    reference_stats = reference.stats()

    cache = PersistentKVCache(
        _bound_engine(plan),
        directory,
        snapshot_every=plan.snapshot_every,
        wal_flush_ops=plan.wal_flush_ops,
    )
    position = 0
    for crash_at in list(plan.crashes) + [plan.ops]:
        crash_at = min(crash_at, plan.ops)
        while position < crash_at:
            cache.get_or_compute(keys[position], _fill)
            position += 1
        if crash_at == plan.ops:
            break
        # Kill: abandon the wrapper un-flushed (buffered records die
        # with the process), optionally tear the newest WAL's tail.
        cache.abandon()
        del cache
        report.crashes += 1
        if plan.torn:
            wal = newest_wal(directory)
            if wal is not None and torn_write(wal, tear_rng) > 0:
                report.torn_events += 1
        cache = recover(
            directory,
            snapshot_every=plan.snapshot_every,
            wal_flush_ops=plan.wal_flush_ops,
            # Callable overrides are not recorded in the manifest; the
            # recovering process must supply the same ones it booted
            # the original engine with.
            history_factory=lambda n: CounterHistory(n),
        )
        # Resume exactly where the persisted prefix ends: the stream
        # is get_or_compute-only, so the recovered get count *is* the
        # stream position.
        recovered_position = cache.stats().gets
        report.replayed_ops += position - recovered_position
        position = recovered_position
    cache.sync()
    final_stats = cache.stats()
    report.decisions_match = final_stats == reference_stats

    engine = cache.cache
    slack = 2 * max(shard.capacity for shard in engine.shards)
    report.bound = BoundReport(
        adaptive_misses=[shard.misses for shard in engine.shards],
        component_misses=[
            [shard.policy.shadows[c].misses for shard in engine.shards]
            for c in range(len(plan.components))
        ],
        slack=slack,
        factor=2.0,
    )
    cache.close()

    _serving_phase(plan, keys, report)
    return report


def _serving_phase(plan: ChaosPlan, keys: List[int],
                   report: ChaosReport) -> None:
    """Phase 2: flaky loader against the resilient ladder."""
    now = [0.0]

    def clock() -> float:
        return now[0]

    def sleep(seconds: float) -> None:
        now[0] += seconds

    engine = AdaptiveKVCache(
        capacity_entries=plan.capacity_entries,
        num_shards=plan.num_shards,
        components=plan.components,
        default_ttl=50.0,
        seed=plan.seed,
        clock=clock,
    )
    loader = FlakyLoader(
        _fill,
        failure_rate=plan.failure_rate,
        burst=plan.burst,
        latency=0.5,
        latency_rate=0.1,
        seed=plan.seed + 13,
        sleep=sleep,
    )
    resilient = ResilientKVCache(
        engine,
        retry=RetryPolicy(attempts=3, backoff=0.05, budget=5.0),
        breaker_factory=lambda: CircuitBreaker(
            failure_threshold=4, recovery_timeout=10.0, clock=clock
        ),
        sleep=sleep,
        clock=clock,
    )
    for key in keys:
        now[0] += 0.25  # entries age; some requests find only stale data
        report.serving_requests += 1
        try:
            value = resilient.get_or_compute(key, loader)
        except LoaderUnavailable:
            report.degraded_denials += 1
            continue
        if value != _fill(key):
            report.wrong_values += 1
    stats = resilient.stats()
    report.stale_serves = stats.stale_hits
    report.breaker_trips = sum(b.trips for b in resilient.breakers)
