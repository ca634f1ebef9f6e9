"""The set-associative cache with pluggable replacement.

Hot-path notes: this module sits on the innermost loop of every
simulation — one :meth:`SetAssociativeCache.access` per memory
reference, millions per sweep — so it trades a little idiom for speed:

* :class:`AccessResult` is a ``__slots__`` class, not a dataclass, and
  hits return a per-set preallocated instance instead of a fresh one;
* address decomposition uses constants precomputed by
  :meth:`~repro.cache.config.CacheConfig.decomposition` instead of the
  property arithmetic;
* policies whose ``observe`` is the base-class no-op are detected once
  at construction and never called per access;
* :meth:`SetAssociativeCache.access_many` replays a whole address batch
  with every method bound to a local, for callers that only need
  aggregate statistics.

All of this is decision-preserving by construction — the golden digests
(``tests/golden/golden.json``) and the differential-oracle campaign
pin the exact same hit/miss/eviction stream as the straightforward
implementation (see docs/performance.md).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.policies.base import ReplacementPolicy

# The columnar batch kernel (repro.perf.kernel) is bound lazily on the
# first access_many call: repro.cache must stay importable without
# repro.perf, and importing it eagerly would cycle through the perf
# package's __init__.
_columnar_dispatch = None


def _maybe_columnar(cache, addresses, writes):
    global _columnar_dispatch
    if _columnar_dispatch is None:
        from repro.perf.kernel import maybe_columnar

        _columnar_dispatch = maybe_columnar
    return _columnar_dispatch(cache, addresses, writes)


class AccessResult:
    """Outcome of one cache access.

    Attributes:
        hit: whether the reference hit.
        set_index: the set the reference mapped to.
        evicted_tag: tag of the block displaced to make room, or None
            (hit, or fill into an invalid way).
        writeback: whether the displaced block was dirty.

    Instances are immutable by convention; hit results may be shared,
    so callers must not mutate them.
    """

    __slots__ = ("hit", "set_index", "evicted_tag", "writeback")

    def __init__(
        self,
        hit: bool,
        set_index: int,
        evicted_tag: Optional[int] = None,
        writeback: bool = False,
    ):
        self.hit = hit
        self.set_index = set_index
        self.evicted_tag = evicted_tag
        self.writeback = writeback

    def __repr__(self) -> str:
        return (
            f"AccessResult(hit={self.hit}, set_index={self.set_index}, "
            f"evicted_tag={self.evicted_tag}, writeback={self.writeback})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessResult):
            return NotImplemented
        return (
            self.hit == other.hit
            and self.set_index == other.set_index
            and self.evicted_tag == other.evicted_tag
            and self.writeback == other.writeback
        )


class SetAssociativeCache:
    """A conventional set-associative cache driven by a replacement policy.

    The cache is deliberately unaware of whether its policy is a simple
    one (LRU, LFU, ...) or the paper's adaptive policy: adaptivity lives
    entirely in the policy object, mirroring the hardware claim that the
    adaptive machinery sits beside — not inside — the standard tag/data
    arrays (Figure 1).

    Write handling is write-back/write-allocate: stores allocate on miss
    and mark the line dirty; evicting a dirty line counts a writeback.
    """

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy):
        if policy.num_sets != config.num_sets or policy.ways != config.ways:
            raise ValueError(
                "policy geometry "
                f"({policy.num_sets} sets x {policy.ways} ways) does not match "
                f"cache geometry ({config.num_sets} sets x {config.ways} ways)"
            )
        self.config = config
        self.policy = policy
        self.sets = [CacheSet(config.ways) for _ in range(config.num_sets)]
        self.stats = CacheStats(per_set_misses=[0] * config.num_sets)
        self._offset_bits, self._index_mask, self._tag_shift = (
            config.decomposition()
        )
        # The base-class observe() is a documented no-op; skipping the
        # call entirely for such policies saves one Python call per
        # access without changing any decision.
        self._observe_is_noop = (
            type(policy).observe is ReplacementPolicy.observe
        )
        # Hits dominate most streams; reuse one result object per set
        # rather than allocating a fresh AccessResult every hit.
        self._hit_results = [
            AccessResult(True, index) for index in range(config.num_sets)
        ]

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Reference one byte address; returns the access outcome."""
        return self.access_decomposed(
            (address >> self._offset_bits) & self._index_mask,
            address >> self._tag_shift,
            is_write,
        )

    def access_decomposed(
        self, set_index: int, tag: int, is_write: bool = False
    ) -> AccessResult:
        """Reference an already-decomposed (set, tag) pair.

        The hierarchy and the experiment harness pre-decompose addresses
        once and replay them against several caches, so this entry point
        avoids repeating the shift/mask work per cache.
        """
        stats = self.stats
        stats.accesses += 1
        policy = self.policy
        if not self._observe_is_noop:
            policy.observe(set_index, tag, is_write)
        cache_set = self.sets[set_index]

        way = cache_set._tag_to_way.get(tag)
        if way is not None:
            stats.hits += 1
            policy.on_hit(set_index, way)
            if is_write:
                cache_set._dirty[way] = True
            return self._hit_results[set_index]

        stats.misses += 1
        stats.per_set_misses[set_index] += 1

        evicted_tag = None
        writeback = False
        if len(cache_set._tag_to_way) == cache_set._ways:
            fill_way = policy.victim(set_index, cache_set)
            evicted_tag, was_dirty = cache_set.evict(fill_way)
            stats.evictions += 1
            if was_dirty:
                stats.writebacks += 1
                writeback = True
        else:
            fill_way = cache_set.free_way()

        cache_set.install(fill_way, tag, dirty=is_write)
        policy.on_fill(set_index, fill_way, tag)
        return AccessResult(
            hit=False,
            set_index=set_index,
            evicted_tag=evicted_tag,
            writeback=writeback,
        )

    def access_many(
        self,
        addresses: Sequence[int],
        writes: Optional[Sequence[bool]] = None,
    ) -> int:
        """Replay a batch of byte addresses; returns the number of hits.

        Decision-identical to calling :meth:`access` per address, but
        with the per-access Python overhead (method dispatch, result
        allocation, repeated attribute loads) hoisted out of the loop.
        Callers that need per-access outcomes (the timing model, the
        hierarchy) keep using :meth:`access`; bulk replays that only
        need the aggregate statistics (golden digests, miss-ratio
        experiments, benchmarks) use this.

        Args:
            addresses: byte addresses to reference, in order.
            writes: optional per-address write flags (same length);
                omitted means every access is a read.

        Raises:
            ValueError: ``writes`` is given with a different length
                from ``addresses``.

        Batches of at least :data:`repro.perf.kernel.AUTO_MIN_BATCH`
        accesses against a supported adaptive cache run on the columnar
        kernel (:mod:`repro.perf.kernel`), byte-identical by contract;
        everything else takes the scalar loop below.
        """
        if writes is not None and len(writes) != len(addresses):
            raise ValueError("writes must have the same length as addresses")
        hits = _maybe_columnar(self, addresses, writes)
        if hits is not None:
            return hits
        offset_bits = self._offset_bits
        index_mask = self._index_mask
        tag_shift = self._tag_shift
        stats = self.stats
        per_set_misses = stats.per_set_misses
        sets = self.sets
        policy = self.policy
        observe = None if self._observe_is_noop else policy.observe
        on_hit = policy.on_hit
        on_fill = policy.on_fill
        victim = policy.victim
        hits = 0
        misses = 0
        evictions = 0
        writebacks = 0

        if writes is None:
            writes = (False,) * len(addresses)
        for address, is_write in zip(addresses, writes):
            set_index = (address >> offset_bits) & index_mask
            tag = address >> tag_shift
            if observe is not None:
                observe(set_index, tag, is_write)
            cache_set = sets[set_index]
            tag_to_way = cache_set._tag_to_way
            way = tag_to_way.get(tag)
            if way is not None:
                hits += 1
                on_hit(set_index, way)
                if is_write:
                    cache_set._dirty[way] = True
                continue
            misses += 1
            per_set_misses[set_index] += 1
            if len(tag_to_way) == cache_set._ways:
                fill_way = victim(set_index, cache_set)
                _evicted, was_dirty = cache_set.evict(fill_way)
                evictions += 1
                if was_dirty:
                    writebacks += 1
            else:
                fill_way = cache_set.free_way()
            cache_set.install(fill_way, tag, dirty=is_write)
            on_fill(set_index, fill_way, tag)

        stats.accesses += hits + misses
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return hits

    def lookup(self, address: int, is_write: bool = False) -> AccessResult:
        """Reference one address *without* filling on a miss.

        Identical to :meth:`access` on the hit path (reference counted,
        policy observed, recency/dirty updated); a miss is counted and
        observed but allocates nothing, so the caller decides where the
        line lands. This is the probe step of the deferred tier walk
        (:class:`~repro.tiers.topology.TieredCache`): leave-copy-down
        placement must know which tier serves the request *before* any
        tier fills.
        """
        set_index = (address >> self._offset_bits) & self._index_mask
        tag = address >> self._tag_shift
        stats = self.stats
        stats.accesses += 1
        policy = self.policy
        if not self._observe_is_noop:
            policy.observe(set_index, tag, is_write)
        cache_set = self.sets[set_index]
        way = cache_set._tag_to_way.get(tag)
        if way is not None:
            stats.hits += 1
            policy.on_hit(set_index, way)
            if is_write:
                cache_set._dirty[way] = True
            return self._hit_results[set_index]
        stats.misses += 1
        stats.per_set_misses[set_index] += 1
        return AccessResult(hit=False, set_index=set_index)

    def admit(self, address: int, dirty: bool = False) -> AccessResult:
        """Install the line holding ``address`` without counting a
        reference.

        The fill step of the deferred tier walk: the placement strategy
        has already decided this tier keeps a copy, so the line is
        installed (evicting a victim if the set is full, with eviction
        and writeback counted as usual) but accesses/hits/misses are
        untouched and the policy's ``observe`` is not called — the
        demand reference was already observed by :meth:`lookup`.
        Admitting a resident line is a no-op beyond optionally marking
        it dirty.
        """
        set_index = (address >> self._offset_bits) & self._index_mask
        tag = address >> self._tag_shift
        cache_set = self.sets[set_index]
        way = cache_set._tag_to_way.get(tag)
        if way is not None:
            if dirty:
                cache_set._dirty[way] = True
            return self._hit_results[set_index]
        evicted_tag = None
        writeback = False
        if len(cache_set._tag_to_way) == cache_set._ways:
            fill_way = self.policy.victim(set_index, cache_set)
            evicted_tag, was_dirty = cache_set.evict(fill_way)
            self.stats.evictions += 1
            if was_dirty:
                self.stats.writebacks += 1
                writeback = True
        else:
            fill_way = cache_set.free_way()
        cache_set.install(fill_way, tag, dirty=dirty)
        self.policy.on_fill(set_index, fill_way, tag)
        return AccessResult(
            hit=False,
            set_index=set_index,
            evicted_tag=evicted_tag,
            writeback=writeback,
        )

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        set_index = self.config.set_index(address)
        return self.sets[set_index].find(self.config.tag(address)) is not None

    def invalidate(self, address: int) -> bool:
        """Remove the line holding ``address`` if present.

        Models coherence invalidations; returns True if a line was
        removed. The policy is notified so ordered structures stay
        consistent.
        """
        set_index = self.config.set_index(address)
        tag = self.config.tag(address)
        cache_set = self.sets[set_index]
        way = cache_set.find(tag)
        if way is None:
            return False
        cache_set.evict(way)
        self.policy.on_invalidate(set_index, way)
        self.stats.invalidations += 1
        return True

    def resident_block_count(self) -> int:
        """Total valid lines across all sets (testing/inspection aid)."""
        return sum(s.occupancy() for s in self.sets)
