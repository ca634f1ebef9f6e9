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

Both searches return the lowest matching way. A set narrower than
:data:`INDEX_MIN_WAYS` scans its row of stored prints in C. A wider
set (an online shard is one set of hundreds of ways) answers from an
exclusive-way index: per component, the real ways whose print that
component's shadow lacks, and a map from each print to the ways
holding it. Shadow misses, fills and invalidations keep it current, so
step 2 is a lookup and step 3 costs about the size of the difference
between the real set and the imitated shadow, not the set's width.

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

#: Sets at least this wide find victims through the exclusive-way index
#: instead of scanning their row: the measured crossover (see
#: docs/performance.md). Narrower sets, such as the simulator's 8-way
#: ones, would pay the index's upkeep on every access for no gain.
INDEX_MIN_WAYS = 512


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
        # runs every access, transforms its tag once and pays one replay
        # per component. The two-component case (the paper's default)
        # is unrolled.
        self._shadow_lookups = [
            shadow.lookup_stored for shadow in self.shadows
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
        # Armed by repro.faults.injector.FaultInjector; None costs one
        # pointer comparison per access and nothing else.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # ReplacementPolicy events
    # ------------------------------------------------------------------

    @property
    def histories(self) -> List[MissHistory]:
        """Per-set miss-history buffers (fault-injection surface)."""
        return [selector.history for selector in self.selectors]

    def observe(self, set_index: int, tag: int, is_write: bool) -> None:
        stored = tag if self._identity else self.tag_transform(tag)
        self._last_tag = tag
        self._last_stored = stored
        pair = self._lookup_pair
        if pair is not None:
            first = pair[0](set_index, stored, is_write)
            second = pair[1](set_index, stored, is_write)
            outcomes = [first, second]
            missed = [first.missed, second.missed]
        else:
            outcomes = [
                lookup(set_index, stored, is_write)
                for lookup in self._shadow_lookups
            ]
            missed = [o.missed for o in outcomes]
        self.selectors[set_index].record(missed)
        if self.vote_sink is not None:
            self.vote_sink(missed)
        index = self._index
        if (index is not None and True in missed
                and index[set_index] is not None):
            # A shadow's victim print leaves it, so the real ways holding
            # that print join the shadow's absent ways.
            holders, absent, _ = index[set_index]
            for outcome, ways in zip(outcomes, absent):
                held = holders.get(outcome.victim_tag)
                if held is not None:
                    if type(held) is int:
                        ways.add(held)
                    else:
                        ways.update(held)
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
            # A miss fills the tag observe() just transformed.
            stored = (
                self._last_stored if tag == self._last_tag
                else self.tag_transform(tag)
            )
            index = self._index
            if index is not None and index[set_index] is not None:
                holders, absent, residents = index[set_index]
                old = row[way]
                # An eviction reaches here without on_invalidate, so the
                # way's old print leaves the index first.
                if old is not None:
                    held = holders.pop(old)
                    if held != way:
                        self._retire_alias(holders, way, old, held)
                held = holders.setdefault(stored, way)
                if held != way:
                    self._enter_alias(holders, way, stored, held)
                for resident, ways in zip(residents, absent):
                    if stored not in resident:
                        ways.add(way)
            row[way] = stored

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
        # victim() only runs on full sets, so the row covers exactly the
        # valid ways.
        index = self._index
        if index is not None:
            entry = index[set_index]
            if entry is None:
                entry = index[set_index] = self._build_index(set_index, row)
            holders, absent, residents = entry
            # Step 2, then step 3, from the index.
            if outcome.missed and outcome.victim_tag is not None:
                held = holders.get(outcome.victim_tag)
                if held is not None:
                    return held if type(held) is int else min(held)
            ways = absent[chosen]
            resident = residents[chosen]
            ways.difference_update(
                [way for way in ways if row[way] in resident]
            )
            if ways:
                return min(ways)
        else:
            # Step 2: the imitated component evicted a block that the
            # real cache also holds -> evict the same block.
            if outcome.missed and outcome.victim_tag is not None:
                way = self._find_way_by_stored_tag(row, outcome.victim_tag)
                if way is not None:
                    return way

            # Step 3: evict any real block not in the imitated component.
            resident = self.shadows[chosen].sets[set_index]._tag_to_way
            way = self._find_way_not_in_shadow(row, resident)
            if way is not None:
                return way

        # Aliasing (partial tags) hid every candidate: arbitrary victim.
        self.fallback_evictions += 1
        return self._fallback_victim(set_index)

    def on_invalidate(self, set_index: int, way: int) -> None:
        # Stale recency stamps and stored tags are harmless: invalid
        # ways are filled before victim() can ever be consulted about
        # them. The index's print map, though, must forget the way, so
        # that the way's next fill enters only its new print.
        self._check_slot(set_index, way)
        index = self._index
        if index is not None and index[set_index] is not None:
            row = self._rows[set_index]
            old = row[way]
            if old is not None:
                holders = index[set_index][0]
                held = holders.pop(old)
                if held != way:
                    self._retire_alias(holders, way, old, held)
                row[way] = None

    def drop_victim_index(self, set_index: int) -> None:
        """Forget ``set_index``'s exclusive-way index.

        For callers that rewrite the set's shadow tags outside
        ``observe()`` (the fault injector's tag flips); the next
        ``victim()`` rebuilds the index from the row and the shadows.
        """
        if self._index is not None:
            self._index[set_index] = None

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
        row: List[Optional[int]], stored_tag: int
    ) -> Optional[int]:
        # Lowest way holding ``stored_tag``, scanned in C by list.index.
        try:
            return row.index(stored_tag)
        except ValueError:
            return None

    @staticmethod
    def _find_way_not_in_shadow(
        row: List[Optional[int]], resident: dict
    ) -> Optional[int]:
        # Lowest way whose stored tag the shadow lacks: the first such
        # tag's lowest way is that way itself, since any earlier way
        # holding the same tag would have matched first.
        for tag in filterfalse(resident.__contains__, row):
            return row.index(tag)
        return None

    def _build_index(self, set_index: int, row: List[int]) -> tuple:
        # (holders, absent, residents). holders maps each stored print
        # to the way holding it, or to a list of ways when partial
        # prints alias. absent[c] holds every way whose print component
        # c's shadow lacks. A shadow fill does not remove the ways
        # holding the filled print: victim() drops such stale ways when
        # it reads the set, so each shadow miss costs one lookup, not
        # two. residents[c] is the shadow set's print->way dict, which
        # only a restore or the columnar kernel replaces, and both drop
        # the index.
        holders = {}
        for way, stored in enumerate(row):
            held = holders.setdefault(stored, way)
            if held != way:
                self._enter_alias(holders, way, stored, held)
        residents = [shadow.sets[set_index]._tag_to_way
                     for shadow in self.shadows]
        absent = [
            {way for way, stored in enumerate(row) if stored not in resident}
            for resident in residents
        ]
        return holders, absent, residents

    @staticmethod
    def _enter_alias(holders: dict, way: int, stored: int, held) -> None:
        # ``way`` joins the way (or list of ways) ``held`` that already
        # holds the aliased print ``stored``.
        if type(held) is int:
            holders[stored] = [held, way]
        else:
            held.append(way)

    @staticmethod
    def _retire_alias(holders: dict, way: int, stored: int,
                      held: list) -> None:
        # ``way`` leaves the list of ways holding the aliased print
        # ``stored``, which the caller popped. (An absent set may keep
        # ``way``: it is refilled before the next victim(), which reads
        # the new print.)
        held.remove(way)
        holders[stored] = held[0] if len(held) == 1 else held

    def _fallback_victim(self, set_index: int) -> int:
        if self.fallback == "random":
            return self._rng.choice_index(self.ways)
        # The first least-recent way in way order, found in C.
        stamps = self._stamp[set_index]
        return stamps.index(min(stamps))

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
        columnar kernel, which rewrites the real sets and the components'
        state without the per-access events; each component forgets its
        own derived state too. Nothing here is observable: it is rebuilt
        from the sets and the next ``observe()``.
        """
        for component in self.components:
            component.drop_derived_state()
        # Outcomes of the current access's shadow replays, consumed by
        # victim(); the cache calls observe() exactly once per access.
        self._last_outcomes: List[ShadowOutcome] = []
        self._last_set = -1
        # The current access's tag and its transform, reused by on_fill.
        self._last_tag: Optional[int] = None
        self._last_stored: Optional[int] = None
        # Per set, the stored (transformed) tag of each real way, written
        # by on_fill so the victim search never re-transforms the set.
        # None means "rebuild from the set view on the next victim()";
        # entries of invalid ways are stale and never read.
        self._rows: List[Optional[List[Optional[int]]]] = [None] * self.num_sets
        # Per set, the exclusive-way index (see _build_index), built
        # with the row on the next victim() and kept by observe,
        # on_fill and on_invalidate; while it exists, the row holds None
        # exactly at the invalid ways. No index below INDEX_MIN_WAYS.
        self._index: Optional[List[Optional[tuple]]] = (
            [None] * self.num_sets if self.ways >= INDEX_MIN_WAYS else None
        )

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the full adaptive machinery.

        Covers the component policies, shadow tag arrays, per-set
        selectors, fallback RNG, recency stamps and decision counters —
        everything Algorithm 1 consults. What
        :meth:`drop_derived_state` forgets is *not* saved: the
        per-access replay outcomes are dead between accesses, where
        snapshots are taken (so a restored policy demands a fresh
        ``observe()`` before its first ``victim()``), and the rows of
        stored real tags and their indexes are rebuilt from the real
        sets and the shadows.
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
