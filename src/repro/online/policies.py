"""Per-shard policy construction for the online engine.

Three shard flavours, all speaking the standard
:class:`~repro.policies.base.ReplacementPolicy` protocol:

* **fixed** — any registry policy (LRU/LFU/FIFO/MRU/Random/...), built
  for the shard's 1 x capacity geometry.
* **adaptive** — the paper's Algorithm 1 per shard: an
  :class:`~repro.core.adaptive.AdaptivePolicy` whose parallel tag
  arrays become shadow *directories* of partial key fingerprints.
* **sampled** (SBAR-style, Section 4.7) — leader shards run the full
  adaptive machinery and additionally vote into a shared
  :class:`~repro.core.selector.GlobalSelector`; follower shards carry
  no shadow structures at all, just resident metadata for both
  components (:class:`~repro.core.sbar.DuelingResidentPolicy`, the
  class SBAR's follower sets use), and evict with whichever component
  the global selector currently favours.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

from repro.core.adaptive import AdaptivePolicy
from repro.core.selector import GlobalSelector
from repro.online.keyspace import partial_fingerprint_transform
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import make_policy


def _make_component(name: str, ways: int, seed: int) -> ReplacementPolicy:
    """One component policy for a 1 x ways shard."""
    kwargs = {"seed": seed} if name == "random" else {}
    return make_policy(name, 1, ways, **kwargs)


def build_shard_policy(
    kind: str,
    capacity: int,
    components: Sequence[str] = ("lru", "lfu"),
    partial_bits: Optional[int] = 16,
    history_factory=None,
    seed: int = 0,
    vote_sink: Optional[Callable[[List[bool]], None]] = None,
) -> ReplacementPolicy:
    """Build one shard's replacement policy.

    Args:
        kind: ``"adaptive"`` (Algorithm 1 with shadow directories) or
            a registry policy name (sampled followers are a
            :class:`~repro.core.sbar.DuelingResidentPolicy` over two
            registry components).
        capacity: shard entry capacity (the policy's associativity).
        components: component names for the adaptive kind.
        partial_bits: partial-fingerprint width for the shadow
            directories (None = full 64-bit fingerprints).
        history_factory: per-shard miss-history constructor override.
        seed: deterministic seed for stochastic policies.
        vote_sink: optional per-access miss-vector callback (leader
            shards wire this to the engine's global selector).
    """
    if kind == "adaptive":
        return AdaptivePolicy(
            1,
            capacity,
            [_make_component(name, capacity, seed) for name in components],
            tag_transform=partial_fingerprint_transform(partial_bits),
            history_factory=history_factory,
            seed=seed,
            vote_sink=vote_sink,
        )
    if vote_sink is not None:
        raise ValueError("vote_sink only applies to adaptive shard policies")
    return _make_component(kind, capacity, seed)


class LockedVoteSink:
    """A thread-safe funnel from leader shards into a global selector.

    Leader shards run under their own locks, so concurrent votes into
    the shared PSEL counter must be serialized; this tiny wrapper owns
    that lock (the hardware selector needs none — this is the price of
    lifting the structure into threaded software).
    """

    def __init__(self, selector: GlobalSelector):
        self.selector = selector
        self._lock = threading.Lock()

    def __call__(self, missed: Sequence[bool]) -> None:
        """Record one leader access's miss vector."""
        with self._lock:
            self.selector.vote(missed)

    def selected(self) -> int:
        """Component the selector currently favours."""
        with self._lock:
            return self.selector.selected()
