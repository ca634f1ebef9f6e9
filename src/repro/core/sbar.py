"""SBAR-like set-sampling adaptive replacement (Section 4.7).

Qureshi, Lynch, Mutlu and Patt's Sampling Based Adaptive Replacement
eliminates the duplicated tag structures for all but a few *leader* sets.
As the paper describes its SBAR-like variant:

* Policy-specific metadata (recency order, frequency counts) is kept at
  all times for the blocks actually in the cache, for *both* component
  policies — so either policy can take over the current contents.
* Leader sets behave like regular adaptive sets: they carry parallel tag
  arrays and a miss history, and their decisive misses additionally vote
  into a global saturating selector (a PSEL-style counter).
* Follower sets carry no extra structures; on a miss they evict whatever
  the globally selected policy's metadata says ("the LFU algorithm
  begins executing on the blocks that are currently in the cache").

:class:`SbarPolicy` is composed of exactly those parts. The leader sets
*are* an :class:`~repro.core.adaptive.AdaptivePolicy` over
``num_leaders`` sets, whose votes feed a
:class:`~repro.core.selector.GlobalSelector`; there is one Algorithm 1.
The resident metadata is a :class:`DuelingResidentPolicy`, the same
class the online engine's sampled mode uses for its follower shards.

This forfeits the theoretical guarantee — switching policies restarts
from the current contents instead of the imitated policy's contents —
but costs only ~0.16% extra SRAM (~0.09% with partial-tag leaders).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.cache.tag_array import TagArray, identity_tag
from repro.core.adaptive import AdaptivePolicy
from repro.core.history import MissHistory
from repro.core.selector import GlobalSelector
from repro.policies.base import ReplacementPolicy, SetView


def spread_leader_sets(num_sets: int, num_leaders: int) -> List[int]:
    """Evenly spaced leader set indices."""
    if not 0 < num_leaders <= num_sets:
        raise ValueError(
            f"num_leaders must be in (0, {num_sets}], got {num_leaders}"
        )
    stride = num_sets // num_leaders
    return [i * stride for i in range(num_leaders)]


class DuelingResidentPolicy(ReplacementPolicy):
    """Follower policy: resident metadata for two components.

    Both component policies track the blocks actually resident (so
    either can take over the current contents), and the one the global
    selector favours chooses victims. Carries no shadow tags or miss
    history — that is the entire point of sampling. Serves the follower
    sets of :class:`SbarPolicy` and the follower shards of the online
    engine's sampled mode.

    Args:
        components: two policy instances of one geometry, which
            becomes this policy's geometry.
        selector: the shared selector leaders train (anything with a
            ``selected()`` method returning 0 or 1).
    """

    name = "dueling"

    def __init__(self, components: Sequence[ReplacementPolicy], selector):
        if len(components) != 2:
            raise ValueError("dueling followers take exactly two components")
        super().__init__(components[0].num_sets, components[0].ways)
        self.components = list(components)
        self.selector = selector
        self.name = "dueling(" + "+".join(c.name for c in components) + ")"

    def on_hit(self, set_index: int, way: int) -> None:
        for component in self.components:
            component.on_hit(set_index, way)

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        for component in self.components:
            component.on_fill(set_index, way, tag)

    def on_invalidate(self, set_index: int, way: int) -> None:
        for component in self.components:
            component.on_invalidate(set_index, way)

    def victim(self, set_index: int, set_view: SetView) -> int:
        return self.components[self.selector.selected()].victim(
            set_index, set_view
        )

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the two components' metadata.

        The shared selector is saved once by its owner, not per
        follower — saving it here would restore it N times.
        """
        return {"components": [c.state_dict() for c in self.components]}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        for component, comp_state in zip(self.components, state["components"]):
            component.load_state_dict(comp_state)


class SbarPolicy(ReplacementPolicy):
    """Set-sampling adaptive replacement over two component policies.

    Args:
        num_sets: cache geometry.
        ways: cache associativity.
        resident_components: two policy instances sized to the *full*
            cache; they track metadata for the blocks actually resident
            and supply victims for follower sets.
        shadow_components: two policy instances sized to
            ``num_leaders`` sets; they manage the leaders' parallel tag
            arrays.
        num_leaders: number of leader sets (16 reproduces the paper's
            0.16% overhead figure).
        tag_transform: full or partial tags for the leader shadows.
        history_factory: per-leader miss-history constructor.
        psel_bits: width of the global saturating selector.
    """

    name = "sbar"

    def __init__(
        self,
        num_sets: int,
        ways: int,
        resident_components: List[ReplacementPolicy],
        shadow_components: List[ReplacementPolicy],
        num_leaders: int = 16,
        tag_transform: Callable[[int], int] = identity_tag,
        history_factory: Optional[Callable[[int], MissHistory]] = None,
        psel_bits: int = 10,
    ):
        super().__init__(num_sets, ways)
        if len(resident_components) != 2 or len(shadow_components) != 2:
            raise ValueError("SBAR adapts over exactly two components")
        for component in resident_components:
            if component.num_sets != num_sets or component.ways != ways:
                raise ValueError(
                    f"resident component {component.name!r} must span the "
                    f"full cache ({num_sets}x{ways})"
                )
        for component in shadow_components:
            if component.num_sets != num_leaders or component.ways != ways:
                raise ValueError(
                    f"shadow component {component.name!r} must span the "
                    f"leader sets ({num_leaders}x{ways})"
                )
        leaders = spread_leader_sets(num_sets, num_leaders)
        self._leader_slot: Dict[int, int] = {s: i for i, s in enumerate(leaders)}
        self.selector = GlobalSelector(psel_bits)
        # Algorithm 1 over the leader sets, addressed by leader slot.
        self.leaders = AdaptivePolicy(
            num_leaders, ways, shadow_components, tag_transform,
            history_factory, vote_sink=self.selector.vote,
        )
        # Resident metadata of every set; victims for the followers.
        self.followers = DuelingResidentPolicy(resident_components, self.selector)
        self.name = "sbar(" + "+".join(c.name for c in resident_components) + ")"
        self.leader_evictions = 0
        self.follower_evictions = 0
        # Armed by repro.faults.injector.FaultInjector; None costs one
        # pointer comparison per access and nothing else.
        self.fault_injector = None

    @property
    def leader_sets(self) -> List[int]:
        """Indices of the leader sets."""
        return sorted(self._leader_slot)

    @property
    def shadows(self) -> List[TagArray]:
        """The leaders' parallel tag arrays (fault-injection surface)."""
        return self.leaders.shadows

    @property
    def histories(self) -> List[MissHistory]:
        """The leaders' miss histories (fault-injection surface)."""
        return self.leaders.histories

    @property
    def tag_transform(self) -> Callable[[int], int]:
        """Full or partial tags of the leader shadows."""
        return self.leaders.tag_transform

    @property
    def fallback_evictions(self) -> int:
        """Leader evictions where aliasing hid every candidate."""
        return self.leaders.fallback_evictions

    def selected_component(self) -> int:
        """Component the global selector currently favours."""
        return self.selector.selected()

    @property
    def selector_max(self) -> int:
        """Largest value the PSEL selector can hold."""
        return self.selector.max_value

    def drop_victim_index(self, slot: int) -> None:
        """Forget a leader's exclusive-way index; ``slot`` numbers the
        leader sets, as the shadows do (fault-injection hook)."""
        self.leaders.drop_victim_index(slot)

    def set_selector(self, value: int) -> None:
        """Clamp-write the PSEL counter (fault-injection hook).

        The selector is a pure performance hint: an arbitrary value only
        changes which component the follower sets imitate until real
        decisive misses re-train it, so corrupting it is always safe.
        """
        self.selector.set_value(value)

    # ------------------------------------------------------------------
    # ReplacementPolicy events: every set's events reach the resident
    # metadata; a leader set's also reach Algorithm 1 at its slot.
    # ------------------------------------------------------------------

    def observe(self, set_index: int, tag: int, is_write: bool) -> None:
        slot = self._leader_slot.get(set_index)
        if slot is not None:
            self.leaders.observe(slot, tag, is_write)
        if self.fault_injector is not None:
            self.fault_injector.tick()

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        self.followers.on_hit(set_index, way)
        slot = self._leader_slot.get(set_index)
        if slot is not None:
            self.leaders.on_hit(slot, way)

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._check_slot(set_index, way)
        self.followers.on_fill(set_index, way, tag)
        slot = self._leader_slot.get(set_index)
        if slot is not None:
            self.leaders.on_fill(slot, way, tag)

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        self.followers.on_invalidate(set_index, way)
        slot = self._leader_slot.get(set_index)
        if slot is not None:
            self.leaders.on_invalidate(slot, way)

    def victim(self, set_index: int, set_view: SetView) -> int:
        slot = self._leader_slot.get(set_index)
        if slot is None:
            self.follower_evictions += 1
            return self.followers.victim(set_index, set_view)
        self.leader_evictions += 1
        return self.leaders.victim(slot, set_view)
