"""Simulated time for the cluster: virtual clock and latency models.

The cluster is a *simulation* of a distributed cache, so time is
virtual: a :class:`VirtualClock` advances only when the router charges
it for a served request, and every node carries a seeded
:class:`LatencyModel` whose samples stand in for network + service
time. That keeps the whole stack deterministic — hedging decisions,
circuit-breaker cooldowns and TTLs all read the same injectable clock,
exactly like the ``clock=`` hooks the online engine already exposes —
while still letting tests model a slow replica (raise ``base``), a
tail-latency straggler (raise ``spike_rate``/``spike``), or a healthy
peer.
"""

from __future__ import annotations

from repro.utils.rng import DeterministicRNG


class VirtualClock:
    """A manually advanced monotonic clock (seconds are simulated),
    starting at 0."""

    def __init__(self):
        self._now = 0.0

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move simulated time forward."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self._now += seconds


class LatencyModel:
    """Seeded per-request latency samples for one node.

    Most requests take ``base`` seconds; a ``spike_rate`` fraction
    take ``base + spike`` (the tail). Identical seeds give identical
    sample streams, so hedging behaviour is reproducible run to run.

    Args:
        spike_rate: probability of a tail request.
        seed: deterministic seed.
    """

    #: Common-case request latency, seconds.
    base = 0.001
    #: Extra latency a tail request pays, seconds.
    spike = 0.05

    def __init__(self, spike_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= spike_rate <= 1.0:
            raise ValueError(
                f"spike_rate must be in [0,1], got {spike_rate}"
            )
        self.spike_rate = spike_rate
        self._rng = DeterministicRNG(seed)
        self.samples = 0
        self.spikes = 0

    def sample(self) -> float:
        """One request's simulated latency."""
        self.samples += 1
        if self.spike_rate > 0.0 and self._rng.random() < self.spike_rate:
            self.spikes += 1
            return self.base + self.spike
        return self.base
