"""Parallel (shadow) tag arrays.

A :class:`TagArray` tracks what a cache managed by one component policy
*would* contain, without storing any data — the paper's "parallel tag
structures" (Section 2.2). It has the same number of sets and ways as the
real cache and runs its component policy on every reference.

Tags may be transformed before storage (the partial-tag optimization of
Section 3.1): the array is constructed with a ``tag_transform`` callable,
identity for full tags or a :class:`~repro.core.partial.PartialTagScheme`
for partial ones. With partial tags, distinct full tags can collide
(false-positive hits); that imprecision is exactly what the paper
evaluates in Figure 5 and is deliberately preserved here.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache.cache_set import CacheSet
from repro.policies.base import ReplacementPolicy


def identity_tag(tag: int) -> int:
    """Full-tag transform: store the tag unchanged."""
    return tag


class ShadowOutcome:
    """What happened when a reference was replayed into a shadow array.

    Attributes:
        missed: the component policy's cache would have missed.
        victim_tag: the (transformed) tag the component policy evicted to
            make room, or None (hit, or fill into an empty way).

    A ``__slots__`` class rather than a dataclass: the adaptive policy
    creates one per component per access, so allocation cost is on the
    hot path — and hits share a single preallocated instance.
    """

    __slots__ = ("missed", "victim_tag")

    def __init__(self, missed: bool, victim_tag: Optional[int] = None):
        self.missed = missed
        self.victim_tag = victim_tag

    def __repr__(self) -> str:
        return (
            f"ShadowOutcome(missed={self.missed}, "
            f"victim_tag={self.victim_tag})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShadowOutcome):
            return NotImplemented
        return (
            self.missed == other.missed
            and self.victim_tag == other.victim_tag
        )


#: Shared outcome for the (dominant) shadow-hit case; never mutated.
_SHADOW_HIT = ShadowOutcome(missed=False)
#: Shared outcome for a miss that filled an empty way (no victim).
_SHADOW_FILL = ShadowOutcome(missed=True)


class TagArray:
    """Tags-only cache simulating one component policy's contents."""

    def __init__(
        self,
        num_sets: int,
        ways: int,
        policy: ReplacementPolicy,
        tag_transform: Callable[[int], int] = identity_tag,
    ):
        if policy.num_sets != num_sets or policy.ways != ways:
            raise ValueError(
                "policy geometry "
                f"({policy.num_sets}x{policy.ways}) does not match tag array "
                f"geometry ({num_sets}x{ways})"
            )
        self.num_sets = num_sets
        self.ways = ways
        self.policy = policy
        self.tag_transform = tag_transform
        self.sets = [CacheSet(ways) for _ in range(num_sets)]
        self.misses = 0
        self.accesses = 0
        self.per_set_misses = [0] * num_sets
        # Component policies are usually simple ones whose observe() is
        # the base-class no-op; detect that once and skip the call.
        self._observe = (
            None
            if type(policy).observe is ReplacementPolicy.observe
            else policy.observe
        )

    def lookup_stored(
        self, set_index: int, stored: int, is_write: bool
    ) -> ShadowOutcome:
        """Replay one reference, its tag already transformed: probe,
        then update as the policy would.

        A caller replaying one reference into several arrays that share
        a transform folds the tag once. Shadow replays run once per
        component per access (the adaptive policy's ``observe`` hook),
        so this is as hot as the real cache's lookup; hit and
        empty-fill outcomes are shared singletons.
        """
        self.accesses += 1
        shadow_set = self.sets[set_index]
        policy = self.policy
        if self._observe is not None:
            self._observe(set_index, stored, is_write)

        way = shadow_set._tag_to_way.get(stored)
        if way is not None:
            policy.on_hit(set_index, way)
            return _SHADOW_HIT

        self.misses += 1
        self.per_set_misses[set_index] += 1
        if len(shadow_set._tag_to_way) == shadow_set._ways:
            fill_way = policy.victim(set_index, shadow_set)
            victim_tag, _ = shadow_set.evict(fill_way)
            outcome = ShadowOutcome(missed=True, victim_tag=victim_tag)
        else:
            fill_way = shadow_set.free_way()
            outcome = _SHADOW_FILL
        shadow_set.install(fill_way, stored)
        policy.on_fill(set_index, fill_way, stored)
        return outcome

    def contains_stored(self, set_index: int, stored_tag: int) -> bool:
        """Membership test on an already-transformed tag."""
        return self.sets[set_index].find(stored_tag) is not None

    def corrupt_stored(
        self, set_index: int, old_stored: int, new_stored: int
    ) -> bool:
        """Overwrite a resident stored tag in place (fault-injection hook).

        Models bit flips in the shadow array's tag SRAM: the block in
        the way holding ``old_stored`` now claims to be ``new_stored``,
        keeping its per-way policy metadata (recency, frequency). If the
        flipped tag aliases a tag already resident in the set, the block
        is simply dropped — exactly the information loss partial tags
        already tolerate by design.

        Shadow state is performance-only: corrupting it can shift which
        component the adaptive policy imitates but can never make the
        *real* cache serve wrong data.

        Returns:
            True if a resident tag was corrupted (or dropped to
            aliasing), False if ``old_stored`` was not resident.
        """
        shadow_set = self.sets[set_index]
        way = shadow_set.find(old_stored)
        if way is None or new_stored == old_stored:
            return False
        shadow_set.evict(way)
        if shadow_set.find(new_stored) is not None:
            # The corrupted tag collides with another resident block:
            # the way turns invalid and will be refilled on a later miss.
            self.policy.on_invalidate(set_index, way)
        else:
            shadow_set.install(way, new_stored)
        return True

    def resident_tags(self, set_index: int) -> List[int]:
        """Transformed tags currently resident in ``set_index``."""
        return self.sets[set_index].resident_tags()

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the shadow contents and counters.

        Deliberately excludes the component policy's state: the policy
        object is shared with (and saved by) its owning
        :class:`~repro.core.adaptive.AdaptivePolicy`, and saving it from
        both sides would restore it twice.
        """
        return {
            "sets": [s.state_dict() for s in self.sets],
            "misses": self.misses,
            "accesses": self.accesses,
            "per_set_misses": list(self.per_set_misses),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        for cache_set, set_state in zip(self.sets, state["sets"]):
            cache_set.load_state_dict(set_state)
        self.misses = int(state["misses"])
        self.accesses = int(state["accesses"])
        self.per_set_misses = [int(m) for m in state["per_set_misses"]]
