"""Adaptive placement: Algorithm 1's selector dueling placement strategies.

The paper's adaptive cache runs every component *replacement policy* on
shadow tag arrays and imitates the one with the fewest decisive misses.
This module applies the identical scheme one axis over: the components
are *placement strategies* (:mod:`repro.tiers.placement`), the shadow
structures are miniature topologies — one LRU dictionary per tier, per
component, per keyspace partition — and the decisive signal is the
*serving depth*: a component "misses" an access when some other
component's shadow topology would have served it from a strictly
nearer tier (the backing store being the deepest level of all). This
generalizes the paper's decisive miss — in a one-tier topology it
degenerates to exactly "some components hit, some missed" — while
staying sensitive to the effect placement actually controls, namely
*where* on the path a value is found, not just whether it is found at
all.

Partitioning plays the role of the paper's per-set adaptation: keys are
folded onto ``num_partitions`` partitions by fingerprint, each with its
own :class:`~repro.core.selector.PolicySelector`, so different regions
of the keyspace can settle on different placement strategies — exactly
how different cache sets settle on different replacement policies in
Algorithm 1.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Tuple

from repro.core.selector import PolicySelector
from repro.online.keyspace import key_fingerprint
from repro.tiers.placement import PlacementStrategy, make_placement

DEFAULT_COMPONENTS = ("lce", "lcd")


class AdaptivePlacement(PlacementStrategy):
    """Per-partition selector dueling fixed placement strategies.

    Every walked access is first replayed through one shadow topology
    per component strategy (:meth:`observe_access`); components whose
    shadow serves the access from deeper than the best component's
    shadow record a miss, and the partition's selector tallies
    decisive outcomes. The real placement
    decision (:meth:`copy_tiers`) then delegates to whichever component
    the partition currently imitates — Algorithm 1, verbatim, with
    placement strategies as the components.

    Shadow tiers are plain LRU dictionaries sized to each real tier's
    per-partition share (``capacity // num_partitions``), the same
    cost-reduction trade the paper makes with partial tags: the shadow
    ranks strategies, it does not replicate the real topology's
    replacement policies.

    Args:
        tier_capacities: entry capacity of each real cache tier, top
            (closest to the client) first.
        components: placement-strategy registry names to duel.
        num_partitions: keyspace partitions, each with its own selector.
        seed: base seed; stochastic components get forked streams so
            real decisions and shadow replays never share a draw
            sequence.
    """

    name = "adaptive"

    def __init__(
        self,
        tier_capacities: Sequence[int],
        components: Sequence[str] = DEFAULT_COMPONENTS,
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
        # Separate instances (and for problcd, separate seeded streams)
        # for real decisions vs shadow replays: the shadow replays one
        # draw per access per stochastic component, the real delegate
        # only draws when imitated — sharing a stream would make each
        # side's draws depend on the other's call pattern.
        self.components = tuple(
            make_placement(cname, seed=seed + i)
            for i, cname in enumerate(components)
        )
        self._shadow_components = tuple(
            make_placement(cname, seed=seed + 100 + i)
            for i, cname in enumerate(components)
        )
        self._shadow_caps = tuple(
            max(1, cap // num_partitions) for cap in tier_capacities
        )
        self.selectors = tuple(
            PolicySelector(num_components=len(components))
            for _ in range(num_partitions)
        )
        # _shadows[partition][component][tier] -> OrderedDict LRU.
        self._shadows = [
            [
                [OrderedDict() for _ in range(self.num_tiers)]
                for _ in components
            ]
            for _ in range(num_partitions)
        ]
        #: Real placement decisions delegated to each component.
        self.decisions = [0] * len(components)
        self._last_key = None
        self._last_partition = 0

    def _partition(self, key) -> int:
        # copy_tiers always follows observe_access for the same key, so
        # one fingerprint per access suffices.
        if key is self._last_key:
            return self._last_partition
        partition = key_fingerprint(key) % self.num_partitions
        self._last_key = key
        self._last_partition = partition
        return partition

    def observe_access(self, key, is_write: bool = False) -> None:
        """Replay ``key`` through every component's shadow topology.

        Each shadow walk serves from the topmost tier holding the key
        (touching its recency) or falls through to the backing store,
        then applies that component's own placement decision to the
        shadow tiers. The partition's selector records a miss for every
        component that served strictly deeper than the best one —
        accesses where all components serve at the same depth are
        indecisive, exactly as all-hit/all-miss accesses are in
        Algorithm 1.
        """
        partition = self._partition(key)
        shadows = self._shadows[partition]
        num_tiers = self.num_tiers
        depths = []
        for component, tiers in zip(self._shadow_components, shadows):
            served = num_tiers
            for level, lru in enumerate(tiers):
                if key in lru:
                    served = level
                    lru.move_to_end(key)
                    break
            depths.append(served)
            for level in component.copy_tiers(num_tiers, served, key):
                lru = tiers[level]
                if key in lru:
                    lru.move_to_end(key)
                else:
                    lru[key] = None
                    if len(lru) > self._shadow_caps[level]:
                        lru.popitem(last=False)
        best_depth = min(depths)
        self.selectors[partition].record(
            [depth > best_depth for depth in depths]
        )

    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        best = self.selectors[self._partition(key)].best_component()
        self.decisions[best] += 1
        return self.components[best].copy_tiers(num_tiers, served_index, key)

    @property
    def switches(self) -> int:
        """Total imitation switches across all partition selectors."""
        return sum(selector.switches for selector in self.selectors)

    def votes(self) -> Tuple[int, ...]:
        """Currently imitated component index, per partition."""
        return tuple(
            selector.best_component() for selector in self.selectors
        )

    def majority(self) -> str:
        """Component name most partitions currently imitate (ties go to
        the earlier component, matching the selector's own tie rule)."""
        votes = self.votes()
        counts = [votes.count(i) for i in range(len(self.component_names))]
        return self.component_names[counts.index(max(counts))]

    def state_summary(self) -> dict:
        return {
            "name": self.name,
            "components": list(self.component_names),
            "num_partitions": self.num_partitions,
            "votes": list(self.votes()),
            "majority": self.majority(),
            "switches": self.switches,
            "decisions": list(self.decisions),
        }
