"""Slow-but-obviously-correct executable policy specifications.

The production policies (:mod:`repro.policies`) are implemented with
per-way stamps and counters for speed; the specs here restate each
policy's *semantics* in textbook form — explicit per-set lists and
dicts keyed by tag — and are driven access-for-access against the real
engines by the differential harness (:mod:`repro.oracle.harness`). A
divergence means one of the two encodings of the semantics is wrong.

Two deliberate design points:

* Specs decide in terms of **tags**, not way indices, except where a
  policy's semantics genuinely depend on way order (Random's uniform
  choice over candidates, SRRIP's first-maximal scan) — there the
  surrounding :class:`SpecCache` supplies the resident tags in way
  order, reproducing the slot bookkeeping of both engines
  (``allocation="lowest"`` for :class:`~repro.cache.cache.SetAssociativeCache`
  fills, ``allocation="stack"`` for the online shard's LIFO free list).
* :class:`SpecAdaptive` restates Algorithm 1 *literally*: component
  contents are simulated by nested spec caches, the miss history is a
  plain list of decisive events rescanned on every decision, and each
  access yields the imitated component and the history state so the
  harness can compare selector behaviour, not just hit/miss outcomes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.cache.tag_array import identity_tag
from repro.utils.rng import DeterministicRNG


@dataclass(frozen=True)
class Decision:
    """One access's full decision record, engine- and spec-comparable.

    Attributes:
        hit: whether the access hit.
        evicted_tag: tag evicted to make room, or None (hit, fill into
            a free slot, or no-fill miss).
        imitated: adaptive only — the component imitated by the victim
            choice, or None (no eviction, or a non-adaptive policy).
        history: adaptive only — per-component recorded miss counts
            after the access, or None for non-adaptive policies.
    """

    hit: bool
    evicted_tag: Optional[int] = None
    imitated: Optional[int] = None
    history: Optional[Tuple[int, ...]] = None


class PolicySpec(abc.ABC):
    """Reference semantics of one replacement policy.

    A spec tracks metadata keyed by tag, one structure per set, and is
    driven by :class:`SpecCache` through the same five events the real
    engines drive their policies with.
    """

    name: str = "spec"

    def __init__(self, num_sets: int, ways: int):
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways

    def observe(self, set_index: int, tag: int, is_write: bool) -> None:
        """Pre-lookup hook (only the adaptive spec uses it)."""

    @abc.abstractmethod
    def on_hit(self, set_index: int, tag: int) -> None:
        """The access hit the resident block ``tag``."""

    @abc.abstractmethod
    def on_fill(self, set_index: int, tag: int) -> None:
        """``tag`` was installed into the set."""

    def on_remove(self, set_index: int, tag: int) -> None:
        """``tag`` left the set (eviction or invalidation)."""

    @abc.abstractmethod
    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        """The tag to evict; ``resident`` lists tags in way order."""

    def pop_imitated(self) -> Optional[int]:
        """Component imitated by the last ``victim_tag`` (adaptive only)."""
        return None

    def history_state(self, set_index: int) -> Optional[Tuple[int, ...]]:
        """Recorded per-component miss counts (adaptive only)."""
        return None


class SpecLRU(PolicySpec):
    """LRU spec: a per-set recency list, least-recent first."""

    name = "lru"

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self._recency: List[List[int]] = [[] for _ in range(num_sets)]

    def on_hit(self, set_index: int, tag: int) -> None:
        order = self._recency[set_index]
        order.remove(tag)
        order.append(tag)

    def on_fill(self, set_index: int, tag: int) -> None:
        self._recency[set_index].append(tag)

    def on_remove(self, set_index: int, tag: int) -> None:
        self._recency[set_index].remove(tag)

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        return self._recency[set_index][0]


class SpecMRU(PolicySpec):
    """MRU spec: same recency list as LRU, evicting the other end."""

    name = "mru"

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self._recency: List[List[int]] = [[] for _ in range(num_sets)]

    def on_hit(self, set_index: int, tag: int) -> None:
        order = self._recency[set_index]
        order.remove(tag)
        order.append(tag)

    def on_fill(self, set_index: int, tag: int) -> None:
        self._recency[set_index].append(tag)

    def on_remove(self, set_index: int, tag: int) -> None:
        self._recency[set_index].remove(tag)

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        return self._recency[set_index][-1]


class SpecFIFO(PolicySpec):
    """FIFO spec: a per-set fill-order queue; hits change nothing."""

    name = "fifo"

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self._queue: List[List[int]] = [[] for _ in range(num_sets)]

    def on_hit(self, set_index: int, tag: int) -> None:
        pass

    def on_fill(self, set_index: int, tag: int) -> None:
        self._queue[set_index].append(tag)

    def on_remove(self, set_index: int, tag: int) -> None:
        self._queue[set_index].remove(tag)

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        return self._queue[set_index][0]


class SpecLFU(PolicySpec):
    """LFU spec: saturating counts per tag, oldest-fill tie-break."""

    name = "lfu"

    def __init__(self, num_sets: int, ways: int, counter_bits: int = 5):
        super().__init__(num_sets, ways)
        self.max_count = (1 << counter_bits) - 1
        self._count: List[dict] = [dict() for _ in range(num_sets)]
        self._fill_seq: List[dict] = [dict() for _ in range(num_sets)]
        self._clock = 0

    def on_hit(self, set_index: int, tag: int) -> None:
        counts = self._count[set_index]
        counts[tag] = min(counts[tag] + 1, self.max_count)

    def on_fill(self, set_index: int, tag: int) -> None:
        self._clock += 1
        self._count[set_index][tag] = 1
        self._fill_seq[set_index][tag] = self._clock

    def on_remove(self, set_index: int, tag: int) -> None:
        del self._count[set_index][tag]
        del self._fill_seq[set_index][tag]

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        counts = self._count[set_index]
        seqs = self._fill_seq[set_index]
        return min(resident, key=lambda tag: (counts[tag], seqs[tag]))


class SpecEHC(PolicySpec):
    """EHC spec: per-tag lifetime hit EMAs, evict fewest expected
    remaining hits.

    Mirrors :class:`repro.policies.ehc.EHCPolicy` in tag-keyed form:
    every residency counts its hits; :meth:`on_remove` (how a lifetime
    ends in the spec cache, whether by replacement or invalidation)
    folds the count into the tag's moving average with the identical
    ``(old + observed) / 2`` float arithmetic, so expectations — and
    therefore victims — match bit-for-bit. Tags without a completed
    lifetime carry the same optimistic expectation of 1.0, and ties
    break toward the oldest fill.
    """

    name = "ehc"

    NEW_TAG_EXPECTATION = 1.0

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self._hits: List[dict] = [dict() for _ in range(num_sets)]
        self._ema: List[dict] = [dict() for _ in range(num_sets)]
        self._fill_seq: List[dict] = [dict() for _ in range(num_sets)]
        self._clock = 0

    def on_hit(self, set_index: int, tag: int) -> None:
        self._hits[set_index][tag] += 1

    def on_fill(self, set_index: int, tag: int) -> None:
        self._clock += 1
        self._hits[set_index][tag] = 0
        self._fill_seq[set_index][tag] = self._clock

    def on_remove(self, set_index: int, tag: int) -> None:
        observed = float(self._hits[set_index].pop(tag))
        del self._fill_seq[set_index][tag]
        ema = self._ema[set_index]
        previous = ema.get(tag)
        ema[tag] = observed if previous is None else (previous + observed) / 2

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        hits = self._hits[set_index]
        ema = self._ema[set_index]
        seqs = self._fill_seq[set_index]
        return min(
            resident,
            key=lambda tag: (
                ema.get(tag, self.NEW_TAG_EXPECTATION) - hits[tag],
                seqs[tag],
            ),
        )


class SpecRandom(PolicySpec):
    """Random spec: a seeded uniform choice over tags in way order."""

    name = "random"

    def __init__(self, num_sets: int, ways: int, seed: int = 0):
        super().__init__(num_sets, ways)
        self._rng = DeterministicRNG(seed)

    def on_hit(self, set_index: int, tag: int) -> None:
        pass

    def on_fill(self, set_index: int, tag: int) -> None:
        pass

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        return resident[self._rng.choice_index(len(resident))]


class SpecSRRIP(PolicySpec):
    """SRRIP spec: an RRPV per tag, first-maximal scan in way order."""

    name = "srrip"

    def __init__(self, num_sets: int, ways: int, rrpv_bits: int = 2):
        super().__init__(num_sets, ways)
        self.max_rrpv = (1 << rrpv_bits) - 1
        self._rrpv: List[dict] = [dict() for _ in range(num_sets)]

    def on_hit(self, set_index: int, tag: int) -> None:
        self._rrpv[set_index][tag] = 0

    def on_fill(self, set_index: int, tag: int) -> None:
        self._rrpv[set_index][tag] = self.max_rrpv - 1

    def on_remove(self, set_index: int, tag: int) -> None:
        del self._rrpv[set_index][tag]

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        rrpvs = self._rrpv[set_index]
        while True:
            for tag in resident:
                if rrpvs[tag] == self.max_rrpv:
                    return tag
            for tag in resident:
                rrpvs[tag] += 1


class SpecBIP(PolicySpec):
    """BIP spec: an LRU list whose fills usually enter at the LRU end.

    A fill is promoted to the MRU end with probability ``epsilon``;
    otherwise it is inserted at the *front* of the victim order, ahead
    of previously cold blocks — matching the engine's decreasing
    cold-stamp counter, where the newest LRU-inserted block is the next
    victim.
    """

    name = "bip"

    def __init__(self, num_sets: int, ways: int, epsilon: float = 1 / 32,
                 seed: int = 0):
        super().__init__(num_sets, ways)
        self.epsilon = epsilon
        self._rng = DeterministicRNG(seed)
        self._order: List[List[int]] = [[] for _ in range(num_sets)]

    def on_hit(self, set_index: int, tag: int) -> None:
        order = self._order[set_index]
        order.remove(tag)
        order.append(tag)

    def on_fill(self, set_index: int, tag: int) -> None:
        if self._rng.random() < self.epsilon:
            self._order[set_index].append(tag)
        else:
            self._order[set_index].insert(0, tag)

    def on_remove(self, set_index: int, tag: int) -> None:
        self._order[set_index].remove(tag)

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        return self._order[set_index][0]


class SpecCache:
    """A reference cache: explicit slot tables driven by a policy spec.

    Args:
        num_sets: geometry.
        ways: associativity (shard mode: entry capacity).
        spec: the policy spec making the decisions.
        allocation: free-slot discipline — ``"lowest"`` mirrors
            :meth:`repro.cache.cache_set.CacheSet.free_way` (hardware
            fills take the lowest-index invalid way), ``"stack"``
            mirrors the online shard's LIFO free list. The two only
            differ after invalidations/deletes; way-sensitive policies
            (random, srrip) need the right one.
    """

    def __init__(self, num_sets: int, ways: int, spec: PolicySpec,
                 allocation: str = "lowest"):
        if spec.num_sets != num_sets or spec.ways != ways:
            raise ValueError(
                f"spec geometry ({spec.num_sets}x{spec.ways}) does not "
                f"match ({num_sets}x{ways})"
            )
        if allocation not in ("lowest", "stack"):
            raise ValueError(f"unknown allocation {allocation!r}")
        self.num_sets = num_sets
        self.ways = ways
        self.spec = spec
        self.allocation = allocation
        self.slots: List[List[Optional[int]]] = [
            [None] * ways for _ in range(num_sets)
        ]
        self._free: List[List[int]] = [
            list(range(ways - 1, -1, -1)) for _ in range(num_sets)
        ]
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def resident_in_way_order(self, set_index: int) -> List[int]:
        """Tags of the set's valid slots, ascending way index."""
        return [t for t in self.slots[set_index] if t is not None]

    def contains(self, set_index: int, tag: int) -> bool:
        """Whether ``tag`` is resident in ``set_index``."""
        return tag in self.slots[set_index]

    def _claim_slot(self, set_index: int) -> Optional[int]:
        """A free way per the allocation discipline, or None if full."""
        if self.allocation == "lowest":
            slots = self.slots[set_index]
            for way, tag in enumerate(slots):
                if tag is None:
                    return way
            return None
        free = self._free[set_index]
        return free.pop() if free else None

    def _release_slot(self, set_index: int, way: int) -> None:
        self.slots[set_index][way] = None
        if self.allocation == "stack":
            self._free[set_index].append(way)

    def access(self, set_index: int, tag: int, is_write: bool = False,
               fill_on_miss: bool = True) -> Decision:
        """Replay one reference through the spec; returns its decision.

        ``fill_on_miss=False`` models the online shard's plain ``get``,
        which observes and misses without installing.
        """
        self.accesses += 1
        self.spec.observe(set_index, tag, is_write)
        slots = self.slots[set_index]

        if tag in slots:
            self.hits += 1
            self.spec.on_hit(set_index, tag)
            return Decision(hit=True,
                            history=self.spec.history_state(set_index))

        self.misses += 1
        if not fill_on_miss:
            return Decision(hit=False,
                            history=self.spec.history_state(set_index))

        evicted = None
        imitated = None
        way = self._claim_slot(set_index)
        if way is None:
            evicted = self.spec.victim_tag(
                set_index, self.resident_in_way_order(set_index)
            )
            imitated = self.spec.pop_imitated()
            way = slots.index(evicted)
            self.spec.on_remove(set_index, evicted)
            self._release_slot(set_index, way)
            if self.allocation == "stack":
                way = self._free[set_index].pop()
        slots[way] = tag
        self.spec.on_fill(set_index, tag)
        return Decision(hit=False, evicted_tag=evicted, imitated=imitated,
                        history=self.spec.history_state(set_index))

    def remove(self, set_index: int, tag: int) -> Decision:
        """Invalidate/delete ``tag``; ``hit`` reports whether it was there."""
        slots = self.slots[set_index]
        if tag not in slots:
            return Decision(hit=False)
        way = slots.index(tag)
        self.spec.on_remove(set_index, tag)
        self._release_slot(set_index, way)
        return Decision(hit=True)


class SpecAdaptive(PolicySpec):
    """Algorithm 1 restated literally, over nested component specs.

    Args:
        num_sets: geometry (components must match).
        ways: associativity.
        component_specs: the component policy specs; each is wrapped in
            its own tags-only :class:`SpecCache` (lowest-way allocation,
            exactly like the engines' :class:`~repro.cache.tag_array.TagArray`).
        window: miss-history window (the paper's m), an int: the
            newest ``window`` decisive events are kept; None keeps
            every decisive event (the counter-history variant).
            :func:`make_adaptive_spec` passes ``ways``, matching
            :class:`~repro.core.adaptive.AdaptivePolicy`.
        tag_transform: identity for full tags, or a partial-tag fold —
            the same callable handed to the engine under test.
        fallback: ``"lru"`` or ``"random"`` — the aliasing fallback.
        seed: RNG seed for the random fallback.
    """

    name = "adaptive"

    def __init__(
        self,
        num_sets: int,
        ways: int,
        component_specs: Sequence[PolicySpec],
        window: Optional[int],
        tag_transform: Callable[[int], int] = identity_tag,
        fallback: str = "lru",
        seed: int = 0,
    ):
        super().__init__(num_sets, ways)
        if len(component_specs) < 2:
            raise ValueError("adaptivity needs at least 2 components")
        if fallback not in ("lru", "random"):
            raise ValueError(f"unknown fallback {fallback!r}")
        self.components = [
            SpecCache(num_sets, ways, spec) for spec in component_specs
        ]
        self.tag_transform = tag_transform
        self.window = window
        self.fallback = fallback
        self._rng = DeterministicRNG(seed)
        self._events: List[List[Tuple[bool, ...]]] = [
            [] for _ in range(num_sets)
        ]
        self._recency: List[List[int]] = [[] for _ in range(num_sets)]
        self._last_set = -1
        self._last_outcomes: List[Decision] = []
        self._imitated: Optional[int] = None

    def observe(self, set_index: int, tag: int, is_write: bool) -> None:
        stored = self.tag_transform(tag)
        outcomes = [
            component.access(set_index, stored, is_write)
            for component in self.components
        ]
        missed = tuple(not o.hit for o in outcomes)
        if any(missed) and not all(missed):
            events = self._events[set_index]
            events.append(missed)
            if self.window is not None and len(events) > self.window:
                del events[: len(events) - self.window]
        self._last_set = set_index
        self._last_outcomes = outcomes

    def history_state(self, set_index: int) -> Tuple[int, ...]:
        events = self._events[set_index]
        return tuple(
            sum(1 for event in events if event[i])
            for i in range(len(self.components))
        )

    def on_hit(self, set_index: int, tag: int) -> None:
        order = self._recency[set_index]
        order.remove(tag)
        order.append(tag)

    def on_fill(self, set_index: int, tag: int) -> None:
        self._recency[set_index].append(tag)

    def on_remove(self, set_index: int, tag: int) -> None:
        self._recency[set_index].remove(tag)

    def victim_tag(self, set_index: int, resident: Sequence[int]) -> int:
        if set_index != self._last_set or not self._last_outcomes:
            raise RuntimeError("victim_tag without a preceding observe")
        counts = self.history_state(set_index)
        chosen = counts.index(min(counts))
        self._imitated = chosen
        outcome = self._last_outcomes[chosen]
        component = self.components[chosen]

        # Step 2: the imitated component just evicted a block the real
        # cache also holds — evict the same block (first way-order match,
        # as the engine scans ways ascending).
        if not outcome.hit and outcome.evicted_tag is not None:
            for tag in resident:
                if self.tag_transform(tag) == outcome.evicted_tag:
                    return tag

        # Step 3: any real block absent from the imitated component.
        for tag in resident:
            if not component.contains(set_index, self.tag_transform(tag)):
                return tag

        # Aliasing hid every candidate: the arbitrary-victim fallback.
        if self.fallback == "random":
            return resident[self._rng.choice_index(len(resident))]
        resident_set = set(resident)
        for tag in self._recency[set_index]:
            if tag in resident_set:
                return tag
        raise RuntimeError("recency order lost track of resident tags")

    def pop_imitated(self) -> Optional[int]:
        imitated, self._imitated = self._imitated, None
        return imitated


_SPEC_FACTORIES = {
    "lru": SpecLRU,
    "lfu": SpecLFU,
    "fifo": SpecFIFO,
    "mru": SpecMRU,
    "random": SpecRandom,
    "srrip": SpecSRRIP,
    "bip": SpecBIP,
    "ehc": SpecEHC,
}


def spec_names() -> List[str]:
    """Sorted names of all policies that have a reference spec."""
    return sorted(_SPEC_FACTORIES)


def make_spec(name: str, num_sets: int, ways: int, **kwargs) -> PolicySpec:
    """Instantiate the reference spec for a registry policy name."""
    try:
        factory = _SPEC_FACTORIES[name]
    except KeyError:
        known = ", ".join(spec_names())
        raise ValueError(f"no spec for policy {name!r}; known: {known}") from None
    return factory(num_sets, ways, **kwargs)


def make_adaptive_spec(
    num_sets: int,
    ways: int,
    component_names: Sequence[str] = ("lru", "lfu"),
    tag_transform: Callable[[int], int] = identity_tag,
    window: Union[int, str, None] = "ways",
    fallback: str = "lru",
    seed: int = 0,
    component_kwargs: Optional[dict] = None,
) -> SpecAdaptive:
    """Build the Algorithm 1 spec from component names.

    Mirrors :func:`repro.core.multi.make_adaptive`: ``window="ways"``
    (the default) is resolved here to ``ways``, matching the engine's
    default bit-vector history with m = associativity; an int or None
    passes through to :class:`SpecAdaptive`. ``component_kwargs``
    forwards per-name constructor arguments (e.g.
    ``{"random": {"seed": 7}}``).
    """
    component_kwargs = component_kwargs or {}
    specs = [
        make_spec(name, num_sets, ways, **component_kwargs.get(name, {}))
        for name in component_names
    ]
    return SpecAdaptive(
        num_sets, ways, specs, ways if window == "ways" else window,
        tag_transform=tag_transform, fallback=fallback, seed=seed,
    )

