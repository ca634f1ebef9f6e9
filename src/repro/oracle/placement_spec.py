"""Reference specs for placement strategies and the tiered KV walk.

Restates :mod:`repro.tiers` in the oracle's textbook style: each
placement strategy (:class:`repro.tiers.placement.PlacementStrategy`)
gets a slow-but-obvious spec, :class:`SpecAdaptivePlacement` transcribes
the adaptive duel literally (plain-list shadow LRU directories per
partition, a rescanned decisive-event window), and :class:`SpecTieredKV`
is a textbook tiered walker driven operation-for-operation against
:class:`repro.tiers.kv.TieredKVCache` by the harness's placement
campaign (:func:`repro.oracle.harness.placement_campaign`). A
divergence means one of the two encodings of the placement semantics
is wrong.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.online.keyspace import key_fingerprint
from repro.utils.rng import DeterministicRNG


@dataclass(frozen=True)
class PlacementDecision:
    """One tiered-KV operation's decision record, engine/spec-comparable.

    Attributes:
        found: whether any tier (or the backing level) produced a value.
        served_by: name of the serving level, or None (plain-get total
            miss, and writes/deletes which serve nothing).
        admitted: names of tiers that installed a copy, near-to-far.
    """

    found: bool
    served_by: Optional[str] = None
    admitted: Tuple[str, ...] = ()


class PlacementSpec(abc.ABC):
    """Reference semantics of one placement strategy.

    Restates :class:`repro.tiers.placement.PlacementStrategy` in the
    oracle's textbook style: given the path position that served a
    request, which tiers admit a copy? Stateful strategies (seeded RNG
    draws, the adaptive duel) must reproduce the real strategy's
    decision sequence exactly when driven by the same operation stream.
    """

    name: str = "placement-spec"

    def observe_access(self, key, is_write: bool = False) -> None:
        """Pre-decision hook (only the adaptive spec uses it)."""

    @abc.abstractmethod
    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        """Tier indices (ascending) that should admit a copy of ``key``."""


class SpecLCEPlacement(PlacementSpec):
    """LCE spec: every tier above the serving one admits a copy."""

    name = "lce"

    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        return tuple(range(min(served_index, num_tiers)))


class SpecLCDPlacement(PlacementSpec):
    """LCD spec: only the tier one level above the serving one admits."""

    name = "lcd"

    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        if served_index < 1:
            return ()
        return (min(served_index, num_tiers) - 1,)


class SpecProbLCDPlacement(PlacementSpec):
    """Probabilistic-LCD spec: one seeded draw per consulted decision.

    The draw discipline is part of the contract: the real strategy
    draws exactly once per :meth:`copy_tiers` call with
    ``served_index >= 1`` and never otherwise, so identical seeds stay
    in lockstep for identical operation streams.
    """

    name = "problcd"

    def __init__(self, p: float = 0.5, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self._rng = DeterministicRNG(seed)

    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        if served_index < 1:
            return ()
        if self._rng.random() < self.p:
            return (min(served_index, num_tiers) - 1,)
        return ()


class SpecAdaptivePlacement(PlacementSpec):
    """Algorithm-1-over-placements restated literally.

    Mirrors :class:`repro.tiers.adaptive.AdaptivePlacement`: per
    keyspace partition, every access is replayed through one plain-list
    shadow LRU topology per component strategy; components whose shadow
    serves strictly deeper than the best one record a miss into the
    partition's decisive-event window (the paper's 8-event bit vector,
    restated as a rescanned list); the real decision imitates the
    component with the fewest windowed misses, ties to the lower index.
    """

    name = "adaptive"

    #: The engine-side default history is the paper's 8-event bit vector
    #: (:class:`repro.core.history.BitVectorHistory`).
    WINDOW = 8

    def __init__(
        self,
        tier_capacities: Sequence[int],
        components: Sequence[str] = ("lce", "lcd"),
        num_partitions: int = 8,
        seed: int = 0,
    ):
        if len(components) < 2:
            raise ValueError(
                f"adaptive placement needs >= 2 components, got "
                f"{len(components)}"
            )
        if "adaptive" in components:
            raise ValueError("adaptive placement cannot nest itself")
        if num_partitions <= 0:
            raise ValueError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        if not tier_capacities or any(c <= 0 for c in tier_capacities):
            raise ValueError(
                f"tier_capacities must be positive, got {tier_capacities!r}"
            )
        self.component_names = tuple(components)
        self.num_partitions = num_partitions
        self.num_tiers = len(tier_capacities)
        # Same seed split as the engine: real delegates at seed + i,
        # shadow replays at seed + 100 + i, so stochastic components'
        # draw streams line up call-for-call.
        self._delegates = [
            make_placement_spec(name, seed=seed + i)
            for i, name in enumerate(components)
        ]
        self._shadow_strategies = [
            make_placement_spec(name, seed=seed + 100 + i)
            for i, name in enumerate(components)
        ]
        self._caps = [
            max(1, cap // num_partitions) for cap in tier_capacities
        ]
        # _shadows[partition][component][tier] -> key list, LRU first.
        self._shadows = [
            [
                [[] for _ in range(self.num_tiers)]
                for _ in components
            ]
            for _ in range(num_partitions)
        ]
        # Decisive-event windows, one per partition; each event is a
        # per-component missed tuple, rescanned on every decision.
        self._events: List[List[Tuple[bool, ...]]] = [
            [] for _ in range(num_partitions)
        ]

    def _partition(self, key) -> int:
        return key_fingerprint(key) % self.num_partitions

    @staticmethod
    def _touch(order: List, key) -> None:
        order.remove(key)
        order.append(key)

    def observe_access(self, key, is_write: bool = False) -> None:
        partition = self._partition(key)
        shadows = self._shadows[partition]
        depths = []
        for strategy, tiers in zip(self._shadow_strategies, shadows):
            served = self.num_tiers
            for level, order in enumerate(tiers):
                if key in order:
                    served = level
                    self._touch(order, key)
                    break
            depths.append(served)
            for level in strategy.copy_tiers(self.num_tiers, served, key):
                order = tiers[level]
                if key in order:
                    self._touch(order, key)
                else:
                    order.append(key)
                    if len(order) > self._caps[level]:
                        order.pop(0)
        best_depth = min(depths)
        missed = tuple(depth > best_depth for depth in depths)
        if any(missed) and not all(missed):
            events = self._events[partition]
            events.append(missed)
            if len(events) > self.WINDOW:
                del events[: len(events) - self.WINDOW]

    def best_component(self, partition: int) -> int:
        """Index of the component with the fewest decisive misses in
        the partition's window (ties go to the lower index)."""
        events = self._events[partition]
        counts = [
            sum(1 for event in events if event[i])
            for i in range(len(self._delegates))
        ]
        return counts.index(min(counts))

    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        best = self.best_component(self._partition(key))
        return self._delegates[best].copy_tiers(num_tiers, served_index, key)

    def votes(self) -> Tuple[int, ...]:
        """Currently imitated component index, per partition."""
        return tuple(
            self.best_component(p) for p in range(self.num_partitions)
        )


_PLACEMENT_SPEC_FACTORIES = {
    "lce": SpecLCEPlacement,
    "lcd": SpecLCDPlacement,
    "problcd": SpecProbLCDPlacement,
    "adaptive": SpecAdaptivePlacement,
}


def placement_spec_names() -> List[str]:
    """Sorted names of all placement strategies that have a spec."""
    return sorted(_PLACEMENT_SPEC_FACTORIES)


def make_placement_spec(
    name: str,
    tier_capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    **kwargs,
) -> PlacementSpec:
    """Instantiate the reference spec for a placement-strategy name.

    Mirrors :func:`repro.tiers.placement.make_placement`: ``"adaptive"``
    requires ``tier_capacities``; ``seed`` feeds stochastic strategies.
    """
    if name == "lce":
        return SpecLCEPlacement(**kwargs)
    if name == "lcd":
        return SpecLCDPlacement(**kwargs)
    if name == "problcd":
        return SpecProbLCDPlacement(seed=seed, **kwargs)
    if name == "adaptive":
        if tier_capacities is None:
            raise ValueError(
                "adaptive placement needs tier_capacities to size its "
                "shadow topologies"
            )
        return SpecAdaptivePlacement(tier_capacities, seed=seed, **kwargs)
    known = ", ".join(placement_spec_names())
    raise ValueError(f"no spec for placement {name!r}; known: {known}")


class SpecTieredKV:
    """A reference tiered KV cache: plain LRU lists under a placement spec.

    Restates :class:`repro.tiers.kv.TieredKVCache` over LRU-policy
    shard tiers in the oracle's textbook style: each tier is a key list
    in recency order (LRU first), and every operation applies the
    placement spec's decisions at exactly the points the real walker
    consults its strategy — so operation streams replayed through both
    must agree on every serve, admit and residency set.

    Args:
        tier_names: tier names, near-to-far.
        tier_capacities: entry capacity per tier.
        placement: the placement spec making copy decisions.
    """

    #: Reporting name for the backing level.
    backing_name = "backing"

    def __init__(
        self,
        tier_names: Sequence[str],
        tier_capacities: Sequence[int],
        placement: PlacementSpec,
    ):
        if len(tier_names) != len(tier_capacities) or not tier_names:
            raise ValueError("need matching, non-empty names/capacities")
        self.names = list(tier_names)
        self.caps = list(tier_capacities)
        self.placement = placement
        # Key list per tier, recency order: index 0 is the LRU victim.
        self.tiers: List[List] = [[] for _ in tier_names]

    def _probe(self, key) -> int:
        """Index of the first tier holding ``key`` (touched), else the
        tier count."""
        for index, order in enumerate(self.tiers):
            if key in order:
                order.remove(key)
                order.append(key)
                return index
        return len(self.tiers)

    def _admit(self, index: int, key) -> None:
        """LRU-install ``key`` into tier ``index`` (touch if resident)."""
        order = self.tiers[index]
        if key in order:
            order.remove(key)
            order.append(key)
            return
        if len(order) == self.caps[index]:
            order.pop(0)
        order.append(key)

    def _admit_copies(self, served: int, key) -> Tuple[str, ...]:
        targets = self.placement.copy_tiers(len(self.tiers), served, key)
        admitted = [
            self.names[index] for index in sorted(targets)
        ]
        for index in sorted(targets, reverse=True):
            self._admit(index, key)
        return tuple(admitted)

    def get(self, key) -> PlacementDecision:
        """Plain get: probe, promote per placement; no backing consult."""
        self.placement.observe_access(key, False)
        served = self._probe(key)
        if served == len(self.tiers):
            return PlacementDecision(found=False)
        admitted = self._admit_copies(served, key)
        return PlacementDecision(True, self.names[served], admitted)

    def fetch(self, key) -> PlacementDecision:
        """Demand fill: a total miss serves from backing and places."""
        self.placement.observe_access(key, False)
        served = self._probe(key)
        if served == len(self.tiers):
            served_name = self.backing_name
        else:
            served_name = self.names[served]
        admitted = self._admit_copies(served, key)
        return PlacementDecision(True, served_name, admitted)

    def put(self, key) -> PlacementDecision:
        """Write-through: place as a backing-served fill; skipped tiers
        are invalidated, and a nowhere decision lands in the far tier."""
        self.placement.observe_access(key, True)
        num_tiers = len(self.tiers)
        targets = set(
            self.placement.copy_tiers(num_tiers, num_tiers, key)
        ) or {num_tiers - 1}
        admitted = []
        for index in range(num_tiers - 1, -1, -1):
            if index in targets:
                self._admit(index, key)
                admitted.append(self.names[index])
            elif key in self.tiers[index]:
                self.tiers[index].remove(key)
        admitted.reverse()
        return PlacementDecision(True, None, tuple(admitted))

    def delete(self, key) -> PlacementDecision:
        """Drop ``key`` from every tier."""
        removed = False
        for order in self.tiers:
            if key in order:
                order.remove(key)
                removed = True
        return PlacementDecision(found=removed)

    def resident(self, index: int) -> List:
        """Sorted keys resident in tier ``index``."""
        return sorted(self.tiers[index])
