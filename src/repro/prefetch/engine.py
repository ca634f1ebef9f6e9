"""The prefetch issuing engine: a cache wrapped with a prefetcher.

Keeps the cache itself prefetch-agnostic (as the real hardware's data
array is): the engine filters candidates, installs prefetched lines
through the normal fill path, tracks each prefetched line until it is
either referenced (useful) or evicted untouched (useless), and feeds
those outcomes back to adaptive hybrids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.prefetch.base import Prefetcher, PrefetchRequest
from repro.prefetch.hybrid import AdaptiveHybridPrefetcher


@dataclass
class PrefetchStats:
    """Demand-side and prefetch-side counters.

    ``demand_misses`` is the figure of merit: prefetching exists to
    reduce it. ``useful``/``useless`` classify completed prefetches;
    pending ones (still resident, untouched) are in neither bucket yet.
    """

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    issued: int = 0
    useful: int = 0
    useless: int = 0

    @property
    def accuracy(self) -> float:
        """useful / completed prefetches; 0.0 before any complete."""
        completed = self.useful + self.useless
        return self.useful / completed if completed else 0.0

    def mpki(self, instructions: int) -> float:
        """Demand misses per thousand instructions."""
        if instructions <= 0:
            raise ValueError(f"instructions must be positive, got {instructions}")
        return 1000.0 * self.demand_misses / instructions


class PrefetchingCache:
    """A set-associative cache fronted by a prefetcher.

    Args:
        cache: the underlying cache (its ``stats`` will include
            prefetch fills; use :attr:`stats` for demand-only numbers).
        prefetcher: candidate generator; adaptive hybrids additionally
            receive per-prefetch usefulness feedback.
    """

    #: Most prefetches issued per demand access.
    degree_budget = 4

    def __init__(self, cache: SetAssociativeCache, prefetcher: Prefetcher):
        self.cache = cache
        self.prefetcher = prefetcher
        self.stats = PrefetchStats()
        # (set_index, tag) -> the request that brought the line in.
        self._pending: Dict[Tuple[int, int], PrefetchRequest] = {}

    def _report(self, request: PrefetchRequest, useful: bool) -> None:
        if useful:
            self.stats.useful += 1
        else:
            self.stats.useless += 1
        if isinstance(self.prefetcher, AdaptiveHybridPrefetcher):
            self.prefetcher.record_outcome(request, useful)

    def _note_eviction(self, set_index: int, evicted_tag) -> None:
        if evicted_tag is None:
            return
        request = self._pending.pop((set_index, evicted_tag), None)
        if request is not None:
            self._report(request, useful=False)

    def access(self, address: int, is_write: bool = False):
        """One demand access; returns the underlying AccessResult."""
        config = self.cache.config
        self.stats.demand_accesses += 1
        result = self.cache.access(address, is_write)
        key = (result.set_index, config.tag(address))
        if result.hit:
            self.stats.demand_hits += 1
            request = self._pending.pop(key, None)
            if request is not None:
                self._report(request, useful=True)
        else:
            self.stats.demand_misses += 1
            self._note_eviction(result.set_index, result.evicted_tag)

        block = config.block_address(address)
        candidates = self.prefetcher.observe(block, result.hit)
        issued = 0
        for request in candidates:
            if issued >= self.degree_budget:
                break
            prefetch_address = request.block << config.offset_bits
            if self.cache.contains(prefetch_address):
                continue
            fill = self.cache.access(prefetch_address)
            self._note_eviction(fill.set_index, fill.evicted_tag)
            self._pending[(fill.set_index, config.tag(prefetch_address))] = \
                request
            self.stats.issued += 1
            issued += 1
        return result
