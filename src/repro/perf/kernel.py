"""Columnar shadow-directory kernel for the adaptive hotpath.

The scalar hotpath (:meth:`repro.cache.cache.SetAssociativeCache.access_many`)
pays Algorithm 1's full price on every reference: two shadow tag-array
lookups, a miss-history update, and the victim imitation dance, all through
per-access method dispatch. This module replays the same batch *columnar*:

* the address batch is decomposed and grouped by set with numpy
  (``argsort``/``bincount``/``cumsum`` — a struct-of-arrays view of the
  access stream: one column of tags, one of arrival ranks, one of write
  flags);
* each touched set is then simulated to completion in one fused Python
  loop whose state — the real set's tag dict, both shadow directories,
  and the selector's bit-vector window — has been hoisted into local
  scalars, dicts and flat lists (the shadow directories' struct-of-arrays
  form: a key list per way for LFU ranks, a recency-ordered dict for LRU,
  stamp rows for MRU);
* each shadow directory is advanced by a ``step`` closure built per set
  by its component kind's factory (``_lru_shadow``, ``_fifo_shadow``,
  ``_lfu_shadow``, ``_mru_shadow``), so the fused loop, written once,
  serves every (policyA, policyB) duel pair.

Decision identity
-----------------

The kernel is byte-identical to the scalar path in every observable
output: ``CacheStats``, per-set miss counters, the full policy
``state_dict()`` (component metadata, shadow contents, selector windows,
switch counts, decision counters, fallback evictions) and the resulting
``CacheSet`` tags/dirty bits. The golden digests and the differential
oracle campaign run with the kernel on and must not move. Two kinds
of *non-observable* internal state are allowed to differ, exactly as
they are after a ``load_state_dict`` round-trip (both are excluded from
``state_dict()``):

* the kernel ends with ``AdaptivePolicy.drop_derived_state()``: it
  forgets the last access's replay outcomes (they only carry
  information between ``observe`` and ``victim`` within one access)
  and each set's row of stored real tags (kept by ``on_fill``, which
  the kernel bypasses when it writes ``CacheSet._tags``; the next
  scalar ``victim`` rebuilds a row from the set itself);
* the LRU shadow ``TagArray``'s per-set dict iteration order is recency
  order rather than fill order (the dict is an index, not state;
  ``state_dict`` serializes the way-indexed tag list).

Saturation skipping
-------------------

When a set's selector window is full and unanimous, a decisive event
that blames the *same* loser shifts the window into itself: the window,
the counts and the imitated component are all unchanged, so the kernel
elides the history update. The guard fails on a phase change (the first
decisive event blaming the other component), so the window resumes
recording with no re-arm protocol. Unlike SBAR's leader-set sampling,
nothing else may be skipped without breaking byte-identity: the shadow
directories themselves are observable state.

When the scalar path is used
----------------------------

One rule picks the kernel, from what the code can observe: a batch runs
columnar exactly when :func:`kernel_plan` accepts the cache and the
batch has at least :data:`AUTO_MIN_BATCH` accesses. :func:`kernel_plan`
returns None for anything outside the envelope the shadow factories
cover: non-adaptive policies, more or fewer than two components,
component kinds without a factory, non-identity tag transforms, a random
fallback, counter histories, and an attached fault injector or vote
sink.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import AdaptivePolicy
from repro.core.history import BitVectorHistory
from repro.core.selector import PolicySelector
from repro.policies.fifo import FIFOPolicy
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.mru import MRUPolicy

#: Batches below this size stay on the scalar path: the numpy
#: decompose/sort setup costs more than it saves.
AUTO_MIN_BATCH = 512

_COMPONENT_KINDS = {
    LRUPolicy: "lru",
    FIFOPolicy: "fifo",
    LFUPolicy: "lfu",
    MRUPolicy: "mru",
}


def kernel_plan(cache) -> Optional[Tuple[str, str]]:
    """The (kindA, kindB) duel pair the kernel would run ``cache`` as,
    or None when the cache is outside the supported envelope
    and the scalar path must be used.

    The envelope (checked exactly, on concrete types, so subclasses with
    overridden behavior never silently take the fast path): an
    :class:`~repro.core.adaptive.AdaptivePolicy` over exactly two
    components drawn from {lru, fifo, lfu, mru}, identity tag transform,
    ``lru`` fallback, per-set :class:`PolicySelector` instances over
    :class:`BitVectorHistory` windows, and no fault injector or vote
    sink attached.
    """
    policy = cache.policy
    if type(policy) is not AdaptivePolicy:
        return None
    if policy.fault_injector is not None or policy.vote_sink is not None:
        return None
    if not policy._identity or policy.fallback != "lru":
        return None
    components = policy.components
    if len(components) != 2:
        return None
    kind_a = _COMPONENT_KINDS.get(type(components[0]))
    kind_b = _COMPONENT_KINDS.get(type(components[1]))
    if kind_a is None or kind_b is None:
        return None
    for selector in policy.selectors:
        if type(selector) is not PolicySelector:
            return None
        if type(selector.history) is not BitVectorHistory:
            return None
    return (kind_a, kind_b)


def _columnar_plan(cache, batch_size: int) -> Optional[Tuple[str, str]]:
    """The selection rule: the duel pair a batch of ``batch_size``
    accesses against ``cache`` runs columnar on, or None for the scalar
    loop."""
    if batch_size < AUTO_MIN_BATCH:
        return None
    return kernel_plan(cache)


def kernel_name(cache, batch_size: int) -> str:
    """Which kernel a batch against ``cache`` would run on, as a label
    for benchmark output: ``"columnar"`` or ``"scalar"``."""
    return "scalar" if _columnar_plan(cache, batch_size) is None else "columnar"


#: What a shadow's ``step`` returns when the access hit in that shadow.
#: A miss returns the evicted shadow tag, or None when a free way was
#: filled.
HIT = object()


def _free_ways(tags: list) -> list:
    """A set's empty ways, highest first, so ``pop()`` yields the lowest."""
    return [way for way in range(len(tags) - 1, -1, -1) if tags[way] is None]


# One shadow factory per component kind. ``factory(component, shadow, n,
# ways)`` binds the component's tables for a batch of ``n`` accesses and
# returns ``(open_set, finish)``. ``open_set(s)`` lifts set ``s``'s shadow
# directory into closure locals and returns ``(step, resident, close)``:
# ``step(tag, gi)`` advances the shadow by the access of arrival rank
# ``gi``; ``resident`` maps the shadow's tags to ways for Algorithm 1's
# "not in the imitated component" search; ``close()`` writes the set back,
# byte-identical to the scalar path's incremental updates, and returns the
# set's shadow misses. ``finish()`` applies the batch-level fixups (global
# clocks, fill stamps).


def _lru_shadow(component, shadow, n: int, ways: int):
    """LRU shadow: a recency-ordered dict tag->way, oldest first. A hit
    pops and reinserts; the victim is the first key."""
    nxt_rows = component._nxt
    prv_rows = component._prv
    sets = shadow.sets

    def open_set(s: int):
        tag_set = sets[s]
        tags = tag_set._tags
        nxt = nxt_rows[s]
        order = {}
        way = nxt[ways]
        while way != ways:
            order[tags[way]] = way
            way = nxt[way]
        free = _free_ways(tags)
        misses = 0

        def step(tag, gi):
            nonlocal misses
            way = order.pop(tag, None)
            if way is not None:
                order[tag] = way
                return HIT
            misses += 1
            if free:
                order[tag] = free.pop()
                return None
            victim = next(iter(order))
            order[tag] = order.pop(victim)
            return victim

        def close():
            # Rebuild the intrusive recency list, the way-indexed tags and
            # the tag index from the recency order.
            _link(nxt, prv_rows[s], order.values(), ways)
            tags[:] = [None] * ways
            for tag, way in order.items():
                tags[way] = tag
            tag_set._tag_to_way = order
            return misses

        return step, order, close

    return open_set, _nothing


def _fifo_shadow(component, shadow, n: int, ways: int):
    """FIFO shadow: dict insertion order *is* fill order in both the
    scalar and columnar paths, so the set's dict is mutated in place and
    only the intrusive queue is rebuilt at close."""
    nxt_rows = component._nxt
    prv_rows = component._prv
    sets = shadow.sets

    def open_set(s: int):
        index = sets[s]._tag_to_way
        tags = sets[s]._tags
        free = _free_ways(tags)
        misses = 0

        def step(tag, gi):
            nonlocal misses
            if tag in index:
                return HIT
            misses += 1
            if free:
                way = free.pop()
                victim = None
            else:
                victim = next(iter(index))
                way = index.pop(victim)
            index[tag] = way
            tags[way] = tag
            return victim

        def close():
            _link(nxt_rows[s], prv_rows[s], index.values(), ways)
            return misses

        return step, index, close

    return open_set, _nothing


def _lfu_shadow(component, shadow, n: int, ways: int):
    """LFU shadow: one composite int key per way, ``count * big + fill
    rank``, so the victim (min count, oldest fill, lowest way) is one
    ``min()``/``index()`` over a flat list. Absolute fill stamps are
    rebuilt at batch end from the global fill order."""
    count_rows = component._count
    stamp_rows = component._fill_stamp
    clock0 = component._clock
    big = n + ways + 2
    saturated = component._max_count * big
    sets = shadow.sets
    all_fills = []
    filled_sets = []

    def open_set(s: int):
        index = sets[s]._tag_to_way
        tags = sets[s]._tags
        counts = count_rows[s]
        stamps = stamp_rows[s]
        keys = [0] * ways
        valid = [way for way in range(ways) if tags[way] is not None]
        valid.sort(key=stamps.__getitem__)
        for rank, way in enumerate(valid, 1):
            keys[way] = counts[way] * big + rank
        rank0 = len(valid)
        free = _free_ways(tags)
        fills = []

        def step(tag, gi):
            way = index.get(tag)
            if way is not None:
                key = keys[way]
                if key < saturated:
                    keys[way] = key + big
                return HIT
            if free:
                way = free.pop()
                victim = None
            else:
                way = keys.index(min(keys))
                victim = tags[way]
                del index[victim]
            index[tag] = way
            tags[way] = tag
            fills.append(gi)
            keys[way] = big + rank0 + len(fills)
            return victim

        def close():
            for way in range(ways):
                if keys[way]:
                    counts[way] = keys[way] // big
            if fills:
                filled_sets.append((stamps, keys, rank0, len(fills)))
                all_fills.extend(fills)
            return len(fills)

        return step, index, close

    def finish():
        # A fill's stamp is the component clock plus its rank among all
        # of the batch's fills in arrival order, across sets. ``all_fills``
        # holds each filled set's fills in turn, so a set's ranks start
        # where the previous set's end.
        if all_fills:
            arrivals = np.array(all_fills, dtype=np.int64)
            fill_rank = (np.searchsorted(np.sort(arrivals), arrivals) + 1).tolist()
            offset = 0
            for stamps, keys, rank0, filled in filled_sets:
                for way in range(ways):
                    rank = keys[way] % big
                    if rank > rank0:
                        stamps[way] = clock0 + fill_rank[offset + rank - rank0 - 1]
                offset += filled
        component._clock = clock0 + len(all_fills)

    return open_set, finish


def _mru_shadow(component, shadow, n: int, ways: int):
    """MRU shadow: absolute stamps written straight into the policy's
    stamp rows; every access touches, so the clock at access ``gi`` is
    ``base + gi``."""
    stamp_rows = component._stamp
    base = component._clock + 1
    sets = shadow.sets

    def open_set(s: int):
        index = sets[s]._tag_to_way
        tags = sets[s]._tags
        stamps = stamp_rows[s]
        free = _free_ways(tags)
        misses = 0

        def step(tag, gi):
            nonlocal misses
            way = index.get(tag)
            if way is not None:
                stamps[way] = gi + base
                return HIT
            misses += 1
            if free:
                way = free.pop()
                victim = None
            else:
                way = stamps.index(max(stamps))
                victim = tags[way]
                del index[victim]
            index[tag] = way
            tags[way] = tag
            stamps[way] = gi + base
            return victim

        def close():
            return misses

        return step, index, close

    def finish():
        component._clock += n

    return open_set, finish


def _nothing() -> None:
    """The ``finish`` of a shadow with no batch-level state."""


def _link(nxt: list, prv: list, order, ways: int) -> None:
    """Rewrite an intrusive list (sentinel ``ways``) to follow ``order``."""
    before = ways
    for way in order:
        nxt[before] = way
        prv[way] = before
        before = way
    nxt[before] = ways
    prv[ways] = before


_SHADOWS = {
    "lru": _lru_shadow,
    "fifo": _fifo_shadow,
    "lfu": _lfu_shadow,
    "mru": _mru_shadow,
}


def _window_bits(events) -> int:
    """A selector window as one int, oldest event in the top bit; a set
    bit means component A missed that decisive event."""
    window = 0
    for a_missed, _ in events:
        window = (window << 1) | (1 if a_missed else 0)
    return window


def _window_events(window: int, length: int, capacity: int) -> deque:
    """The inverse of :func:`_window_bits`."""
    events = deque(maxlen=capacity)
    for shift in range(length - 1, -1, -1):
        a_missed = bool((window >> shift) & 1)
        events.append((a_missed, not a_missed))
    return events


def _replay(plan, cache, n, touched, starts, tags, gis, writes, rec) -> int:
    """The fused loop: both shadow steps, the selector window and the real
    directory (Algorithm 1's victim selection inlined), one set at a time
    over the set-grouped batch columns."""
    policy = cache.policy
    ways = cache.config.ways
    shadow_a, shadow_b = policy.shadows
    open_a, finish_a = _SHADOWS[plan[0]](policy.components[0], shadow_a, n, ways)
    open_b, finish_b = _SHADOWS[plan[1]](policy.components[1], shadow_b, n, ways)
    stamp_rows = policy._stamp
    base = policy._clock + 1
    hits_total = misses_total = evictions = writebacks = 0
    for s in touched:
        lo = starts[s]
        hi = starts[s + 1]
        real = cache.sets[s]
        index = real._tag_to_way
        real_tags = real._tags
        dirty = real._dirty
        stamps = stamp_rows[s]
        free = _free_ways(real_tags)
        step_a, resident_a, close_a = open_a(s)
        step_b, resident_b, close_b = open_b(s)
        selector = policy.selectors[s]
        history = selector.history
        capacity = history.window
        top = capacity - 1
        full = (1 << capacity) - 1
        window = _window_bits(history._events)
        length = len(history._events)
        count_a = history._counts[0]
        best = selector._best
        switches = chose_a = chose_b = 0
        hits = misses = 0
        flags = repeat(False) if writes is None else writes[lo:hi]
        for tag, gi, is_write in zip(tags[lo:hi], gis[lo:hi], flags):
            victim_a = step_a(tag, gi)
            victim_b = step_b(tag, gi)
            missed_a = victim_a is not HIT
            missed_b = victim_b is not HIT
            # A decisive event, unless the window is full and unanimous
            # and the event blames the same loser again: that shifts the
            # window into itself, so the counts and the imitated
            # component are unchanged and the update is elided.
            if missed_a != missed_b and (
                length < capacity or window != (full if missed_a else 0)
            ):
                if length < capacity:
                    length += 1
                else:
                    count_a -= window >> top
                window = ((window << 1) | missed_a) & full
                count_a += missed_a
                chosen = 0 if count_a + count_a <= length else 1
                if chosen != best:
                    best = chosen
                    switches += 1

            way = index.get(tag)
            if way is not None:
                hits += 1
                stamps[way] = gi + base
                if is_write:
                    dirty[way] = True
                if rec is not None:
                    rec[gi] = True
                continue
            misses += 1
            if free:
                way = free.pop()
            else:
                evictions += 1
                if count_a + count_a <= length:
                    chose_a += 1
                    victim, resident = victim_a, resident_a
                else:
                    chose_b += 1
                    victim, resident = victim_b, resident_b
                # Imitate the chosen component's eviction; HIT and None
                # (it evicted nothing) are never real tags. Otherwise evict
                # the first way the chosen shadow does not hold: with full
                # tags there always is one, since that shadow now holds the
                # missing tag and at most ways - 1 of the real ones, so
                # Algorithm 1's fallback (for aliased partial tags) never
                # runs here.
                way = index.get(victim)
                if way is None:
                    way = next(w for w in range(ways) if real_tags[w] not in resident)
                del index[real_tags[way]]
                if dirty[way]:
                    writebacks += 1
            index[tag] = way
            real_tags[way] = tag
            dirty[way] = is_write
            stamps[way] = gi + base

        misses_a = close_a()
        misses_b = close_b()
        hits_total += hits
        misses_total += misses
        cache.stats.per_set_misses[s] += misses
        shadow_a.misses += misses_a
        shadow_b.misses += misses_b
        shadow_a.per_set_misses[s] += misses_a
        shadow_b.per_set_misses[s] += misses_b
        decisions = policy._decisions[s]
        decisions[0] += chose_a
        decisions[1] += chose_b
        history._events = _window_events(window, length, capacity)
        history._counts = [count_a, length - count_a]
        selector._best = best
        selector.switches += switches
    finish_a()
    finish_b()
    shadow_a.accesses += n
    shadow_b.accesses += n
    policy._clock += n
    policy.drop_derived_state()
    stats = cache.stats
    stats.accesses += n
    stats.hits += hits_total
    stats.misses += misses_total
    stats.evictions += evictions
    stats.writebacks += writebacks
    return hits_total


def _run(plan, cache, addresses, writes, rec) -> int:
    # An int64 numpy array (the timing model's address column, viewed
    # with np.frombuffer) passes through without a copy.
    offset_bits, index_mask, tag_shift = cache.config.decomposition()
    arr = np.asarray(addresses, dtype=np.int64)
    sets_arr = (arr >> offset_bits) & index_mask
    order = np.argsort(sets_arr, kind="stable")
    counts = np.bincount(sets_arr, minlength=cache.config.num_sets)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    writes_sorted = None
    if writes is not None:
        writes_sorted = np.asarray(writes, dtype=bool)[order].tolist()
    return _replay(
        plan,
        cache,
        len(arr),
        np.flatnonzero(counts).tolist(),
        starts.tolist(),
        array("q", (arr >> tag_shift)[order].tobytes()),
        array("q", order.astype(np.int64, copy=False).tobytes()),
        writes_sorted,
        rec,
    )


def maybe_columnar(cache, addresses, writes) -> Optional[int]:
    """The dispatch hook behind ``SetAssociativeCache.access_many``.

    Returns the hit count when the columnar kernel ran the batch, or
    None when the scalar loop should (see :func:`_columnar_plan`).
    ``writes``, when not None, must match ``addresses`` in length;
    ``access_many`` checks that before dispatching.
    """
    plan = _columnar_plan(cache, len(addresses))
    if plan is None:
        return None
    return _run(plan, cache, addresses, writes, None)


def columnar_access_many(
    cache,
    addresses: Sequence[int],
    writes: Optional[Sequence[bool]] = None,
    record: Optional[List[bool]] = None,
) -> int:
    """Run one batch through the columnar kernel unconditionally.

    Unlike :func:`maybe_columnar` this ignores the batch threshold, and
    raises ValueError for unsupported caches — the entry point for
    differential tests and the oracle's columnar lane. ``writes`` and
    ``record`` that differ from ``addresses`` in length raise ValueError
    before the cache is touched.

    Args:
        record: optional ``[False] * len(addresses)`` list; the kernel
            sets ``record[i]`` True for every hit, in original access
            order.
    """
    plan = kernel_plan(cache)
    if plan is None:
        raise ValueError(
            "columnar kernel does not support this cache; see kernel_plan() "
            "for the supported envelope"
        )
    if writes is not None and len(writes) != len(addresses):
        raise ValueError("writes must have the same length as addresses")
    if record is not None and len(record) != len(addresses):
        raise ValueError("record must have the same length as addresses")
    return _run(plan, cache, addresses, writes, record)


def columnar_hit_stream(
    cache,
    addresses: Sequence[int],
    writes: Optional[Sequence[bool]] = None,
) -> Optional[bytearray]:
    """Advance ``cache`` through a whole batch, returning the per-access
    hit stream (one byte per access, 1 for a hit) — or None when the
    scalar path should run.

    The timing model replays its compiled L2 columns and only consumes
    ``result.hit`` per access, so it can precompute the whole hit stream
    here and keep its cycle-accounting loop unchanged.
    """
    plan = _columnar_plan(cache, len(addresses))
    if plan is None:
        return None
    rec = bytearray(len(addresses))
    _run(plan, cache, addresses, writes, rec)
    return rec
