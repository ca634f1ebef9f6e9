"""The adaptive replacement policy (Sections 2.2-2.3, Algorithm 1).

:class:`AdaptivePolicy` is a :class:`~repro.policies.base.ReplacementPolicy`,
so it plugs into an unmodified :class:`~repro.cache.cache.SetAssociativeCache`
— mirroring the paper's hardware claim that adaptivity adds structures
*beside* the conventional cache (Figure 1) without touching its critical
path.

Per access (the ``observe`` hook, which the cache invokes before lookup):

1. Replay the reference into each component's parallel tag array,
   recording whether that component would have hit or missed and which
   block it evicted.
2. If the outcome was decisive (some but not all components missed),
   record it in the set's miss history buffer.

On a real miss the cache asks for a victim; Algorithm 1 runs:

1. Pick the component with the fewest recorded misses (ties go to the
   first component, as in the paper's worked example).
2. If that component itself missed and the block it just evicted is in
   the real cache, evict the same block.
3. Otherwise evict any real block *not* present in that component's tag
   array. With full tags such a block must exist whenever the contents
   differ; with partial tags aliasing can hide every candidate, in which
   case an arbitrary block is evicted (Section 3.1).

The policy generalizes transparently from two components to N — the
paper's five-policy experiment (Section 4.4) uses the same class.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Callable, List, Optional, Sequence

from repro.cache.tag_array import ShadowOutcome, TagArray, identity_tag
from repro.core.history import BitVectorHistory, MissHistory
from repro.core.selector import PolicySelector
from repro.policies.base import ReplacementPolicy, SetView
from repro.utils.rng import DeterministicRNG


class AdaptivePolicy(ReplacementPolicy):
    """Adaptive replacement over N >= 2 component policies.

    Args:
        num_sets: cache geometry (must match the component policies).
        ways: cache associativity.
        components: component policy instances; each becomes the manager
            of one parallel tag array. Order matters: ties in the history
            favour earlier components, and reports use this order.
        tag_transform: full-tag identity or a
            :class:`~repro.core.partial.PartialTagScheme`.
        history_factory: per-set miss history constructor; defaults to
            the paper's m-bit vector with m = ``ways``.
        fallback: victim choice when aliasing defeats the "not in
            component" search — ``"lru"`` (default; the paper suggests
            keeping a recency order, Section 3.3) or ``"random"``.
        seed: RNG seed for the random fallback.
        vote_sink: optional callable receiving each access's
            per-component miss vector; lets sampled leader units feed a
            shared :class:`~repro.core.selector.GlobalSelector` (used by
            the online engine's SBAR-style mode).
    """

    name = "adaptive"

    def __init__(
        self,
        num_sets: int,
        ways: int,
        components: Sequence[ReplacementPolicy],
        tag_transform: Callable[[int], int] = identity_tag,
        history_factory: Optional[Callable[[int], MissHistory]] = None,
        fallback: str = "lru",
        seed: int = 0,
        vote_sink: Optional[Callable[[List[bool]], None]] = None,
    ):
        super().__init__(num_sets, ways)
        if len(components) < 2:
            raise ValueError(
                f"adaptivity needs at least 2 components, got {len(components)}"
            )
        if fallback not in ("lru", "random"):
            raise ValueError(f"unknown fallback {fallback!r}")
        for component in components:
            if component.num_sets != num_sets or component.ways != ways:
                raise ValueError(
                    f"component {component.name!r} geometry "
                    f"({component.num_sets}x{component.ways}) does not match "
                    f"({num_sets}x{ways})"
                )
        self.components = list(components)
        self.tag_transform = tag_transform
        self.fallback = fallback
        self.name = "adaptive(" + "+".join(c.name for c in self.components) + ")"

        if history_factory is None:
            def history_factory(n):
                return BitVectorHistory(n, window=ways)
        self.selectors: List[PolicySelector] = [
            PolicySelector(history_factory(len(self.components)))
            for _ in range(num_sets)
        ]
        self.vote_sink = vote_sink
        self.shadows = [
            TagArray(num_sets, ways, component, tag_transform)
            for component in self.components
        ]

        # Bound methods of the shadow arrays, hoisted once: observe()
        # runs every access and pays one replay per component. The
        # two-component case (the paper's default) is unrolled.
        self._shadow_lookups = [
            shadow.lookup_update for shadow in self.shadows
        ]
        self._lookup_pair = (
            tuple(self._shadow_lookups)
            if len(self._shadow_lookups) == 2
            else None
        )
        self._identity = tag_transform is identity_tag
        self._rng = DeterministicRNG(seed)
        # Recency stamps for the LRU fallback and the imitate-LRU shortcut.
        self._clock = 0
        self._stamp = [[0] * ways for _ in range(num_sets)]
        self.drop_derived_state()
        # Imitation decisions per set per component, drained by Figure 7.
        self._decisions = [[0] * len(self.components) for _ in range(num_sets)]
        self.fallback_evictions = 0
        # Armed by repro.faults.FaultInjector; None costs one pointer
        # comparison per access and nothing else.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # ReplacementPolicy events
    # ------------------------------------------------------------------

    @property
    def histories(self) -> List[MissHistory]:
        """Per-set miss-history buffers (fault-injection surface)."""
        return [selector.history for selector in self.selectors]

    def observe(self, set_index: int, tag: int, is_write: bool) -> None:
        pair = self._lookup_pair
        if pair is not None:
            first = pair[0](set_index, tag, is_write)
            second = pair[1](set_index, tag, is_write)
            outcomes = [first, second]
            missed = [first.missed, second.missed]
        else:
            outcomes = [
                lookup(set_index, tag, is_write)
                for lookup in self._shadow_lookups
            ]
            missed = [o.missed for o in outcomes]
        self.selectors[set_index].record(missed)
        if self.vote_sink is not None:
            self.vote_sink(missed)
        self._last_outcomes = outcomes
        self._last_set = set_index
        if self.fault_injector is not None:
            self.fault_injector.tick()

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        self._clock += 1
        self._stamp[set_index][way] = self._clock

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._check_slot(set_index, way)
        self._clock += 1
        self._stamp[set_index][way] = self._clock
        row = self._rows[set_index]
        if row is not None:
            row[way] = self.tag_transform(tag)

    def victim(self, set_index: int, set_view: SetView) -> int:
        if set_index != self._last_set or not self._last_outcomes:
            raise RuntimeError(
                "victim() called without a preceding observe() for set "
                f"{set_index}; the adaptive policy must be driven by a "
                "SetAssociativeCache"
            )
        chosen = self.selectors[set_index].best_component()
        self._decisions[set_index][chosen] += 1
        outcome = self._last_outcomes[chosen]
        row = self._rows[set_index]
        if row is None:
            row = self._rows[set_index] = self._build_row(set_view)
        # victim() only runs on full sets, where the row covers exactly
        # the valid ways; a narrower view (a protected way) scans the
        # ways it offers.
        ways = None if set_view.valid_count() == self.ways else set_view.valid_ways()

        # Step 2: the imitated component evicted a block that the real
        # cache also holds -> evict the same block.
        if outcome.missed and outcome.victim_tag is not None:
            way = self._find_way_by_stored_tag(row, ways, outcome.victim_tag)
            if way is not None:
                return way

        # Step 3: evict any real block not in the imitated component.
        resident = self.shadows[chosen].sets[set_index]._tag_to_way
        way = self._find_way_not_in_shadow(row, ways, resident)
        if way is not None:
            return way

        # Aliasing (partial tags) hid every candidate: arbitrary victim.
        self.fallback_evictions += 1
        return self._fallback_victim(set_index, set_view)

    def on_invalidate(self, set_index: int, way: int) -> None:
        # Stale recency stamps and stored tags are harmless: invalid
        # ways are filled before victim() can ever be consulted about
        # them.
        self._check_slot(set_index, way)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build_row(self, set_view: SetView) -> List[Optional[int]]:
        transform = self.tag_transform
        return [
            None if tag is None else transform(tag)
            for tag in map(set_view.tag_at, range(self.ways))
        ]

    @staticmethod
    def _find_way_by_stored_tag(
        row: List[Optional[int]], ways: Optional[Sequence[int]], stored_tag: int
    ) -> Optional[int]:
        # Lowest way in scan order holding ``stored_tag``; ``ways`` None
        # means every way (a full set), scanned in C by list.index.
        if ways is None:
            try:
                return row.index(stored_tag)
            except ValueError:
                return None
        for way in ways:
            if row[way] == stored_tag:
                return way
        return None

    @staticmethod
    def _find_way_not_in_shadow(
        row: List[Optional[int]], ways: Optional[Sequence[int]], resident: dict
    ) -> Optional[int]:
        # Lowest way in scan order whose stored tag the shadow lacks. On
        # a full set the first such tag's lowest way is that way itself:
        # any earlier way holding the same tag would have matched first.
        if ways is None:
            for tag in filterfalse(resident.__contains__, row):
                return row.index(tag)
            return None
        for way in ways:
            if row[way] not in resident:
                return way
        return None

    def _fallback_victim(self, set_index: int, set_view: SetView) -> int:
        candidates = set_view.valid_ways()
        if self.fallback == "random":
            return candidates[self._rng.choice_index(len(candidates))]
        stamps = self._stamp[set_index]
        return min(candidates, key=stamps.__getitem__)

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------

    def component_misses(self) -> List[int]:
        """Total shadow misses per component (what each policy alone
        would have suffered — up to partial-tag optimism)."""
        return [shadow.misses for shadow in self.shadows]

    def selector_switches(self) -> int:
        """Total imitation-target changes across all per-set selectors."""
        return sum(selector.switches for selector in self.selectors)

    def drain_decisions(self) -> List[List[int]]:
        """Per-set imitation decision counts since the previous drain.

        Figure 7's set-vs-time maps sample this every time quantum: the
        majority component per set paints the pixel.
        """
        drained = [list(row) for row in self._decisions]
        for row in self._decisions:
            for i in range(len(row)):
                row[i] = 0
        return drained

    # ------------------------------------------------------------------
    # Crash-recovery state capture
    # ------------------------------------------------------------------

    def drop_derived_state(self) -> None:
        """Forget everything not in :meth:`state_dict`.

        Called on construction, by :meth:`load_state_dict`, and by the
        columnar kernel, which rewrites the real sets without the
        per-access events. Nothing here is observable: it is rebuilt
        from the sets and the next ``observe()``.
        """
        # Outcomes of the current access's shadow replays, consumed by
        # victim(); the cache calls observe() exactly once per access.
        self._last_outcomes: List[ShadowOutcome] = []
        self._last_set = -1
        # Per set, the stored (transformed) tag of each real way, written
        # by on_fill so the victim search never re-transforms the set.
        # None means "rebuild from the set view on the next victim()";
        # entries of invalid ways are stale and never read.
        self._rows: List[Optional[List[Optional[int]]]] = [None] * self.num_sets

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the full adaptive machinery.

        Covers the component policies, shadow tag arrays, per-set
        selectors, fallback RNG, recency stamps and decision counters —
        everything Algorithm 1 consults. What
        :meth:`drop_derived_state` forgets is *not* saved: the
        per-access replay outcomes are dead between accesses, where
        snapshots are taken (so a restored policy demands a fresh
        ``observe()`` before its first ``victim()``), and the rows of
        stored real tags are rebuilt from the real sets.
        """
        return {
            "components": [c.state_dict() for c in self.components],
            "shadows": [s.state_dict() for s in self.shadows],
            "selectors": [s.state_dict() for s in self.selectors],
            "rng": self._rng.state(),
            "clock": self._clock,
            "stamp": [list(row) for row in self._stamp],
            "decisions": [list(row) for row in self._decisions],
            "fallback_evictions": self.fallback_evictions,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        for component, comp_state in zip(self.components, state["components"]):
            component.load_state_dict(comp_state)
        for shadow, shadow_state in zip(self.shadows, state["shadows"]):
            shadow.load_state_dict(shadow_state)
        for selector, sel_state in zip(self.selectors, state["selectors"]):
            selector.load_state_dict(sel_state)
        self._rng.restore(state["rng"])
        self._clock = int(state["clock"])
        self._stamp = [list(map(int, row)) for row in state["stamp"]]
        self._decisions = [list(map(int, row)) for row in state["decisions"]]
        self.fallback_evictions = int(state["fallback_evictions"])
        self.drop_derived_state()
