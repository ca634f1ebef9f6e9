"""Seeded backend faults for the online serving stack.

The simulator-side fault model (:mod:`repro.faults.plan`) corrupts the
adaptive machinery's auxiliary state; this module attacks the *online*
layers added around the engine instead: :class:`FlakyLoader` wraps a
backend loader with seeded exceptions and latency spikes, exercising
the retry / circuit-breaker / stale-serve ladder of
:class:`~repro.online.resilience.ResilientKVCache`, and
:class:`AsyncFlakyLoader` awaits its latency for the open-loop serving
harness. Crashes, torn WAL tails and node faults are driven by the
invariant state machine in ``tests/invariants``.
"""

from __future__ import annotations

from typing import Callable

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

    def _decide(self, key, draw_latency: bool = True):
        """Draw one call's fate: ``(delay_seconds, error_or_None)``.

        Shared by the sync and async call paths, so both consume the
        seeded stream identically — a plan replayed through either
        loader makes the same injection decisions. Without
        ``draw_latency`` (or with no ``latency`` configured) the
        latency draw is skipped entirely: the burst countdown, then
        one failure draw.
        """
        self.calls += 1
        delay = 0.0
        if (draw_latency and self.latency > 0
                and self._rng.random() < self.latency_rate):
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
        # With no sleep injected there is no latency to pay, so the
        # latency draw is skipped.
        delay, error = self._decide(key, draw_latency=self._sleep is not None)
        if delay > 0:
            self._sleep(delay)
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
