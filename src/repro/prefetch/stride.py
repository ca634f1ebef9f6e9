"""Region-based stride prefetching."""

from __future__ import annotations

from typing import Dict, List

from repro.prefetch.base import Prefetcher, PrefetchRequest


class _RegionEntry:
    """Stride-detection state for one address region."""

    __slots__ = ("last_block", "stride", "confidence")

    def __init__(self, block: int):
        self.last_block = block
        self.stride = 0
        self.confidence = 0


class StridePrefetcher(Prefetcher):
    """Detects constant strides within address regions.

    Without per-instruction PCs in the L2-visible stream, strides are
    learned per *region* (the high bits of the block address), the way
    stream-buffer style prefetchers do. Two consecutive accesses to a
    region with the same delta train the entry; once confidence reaches
    the threshold, the prefetcher runs ``degree`` strides ahead.
    """

    name = "stride"
    #: Regions are ``2**region_bits`` blocks wide.
    region_bits = 8
    #: Regions tracked at once; the least recently used one is dropped.
    table_entries = 64
    #: Strides issued ahead once an entry is trained.
    degree = 2
    #: Confirmations of one delta before the entry issues.
    confidence_threshold = 2

    def __init__(self):
        self._table: Dict[int, _RegionEntry] = {}
        self._lru = 0
        self._use: Dict[int, int] = {}

    def observe(self, block: int, was_hit: bool) -> List[PrefetchRequest]:
        region = block >> self.region_bits
        self._lru += 1
        self._use[region] = self._lru
        entry = self._table.get(region)
        if entry is None:
            if len(self._table) >= self.table_entries:
                victim = min(self._table, key=lambda r: self._use.get(r, 0))
                del self._table[victim]
                self._use.pop(victim, None)
            self._table[region] = _RegionEntry(block)
            return []

        delta = block - entry.last_block
        entry.last_block = block
        if delta == 0:
            return []
        if delta == entry.stride:
            entry.confidence = min(entry.confidence + 1, 4)
        else:
            entry.stride = delta
            entry.confidence = 1
        if entry.confidence < self.confidence_threshold:
            return []
        return [
            PrefetchRequest(block + i * entry.stride, self.name)
            for i in range(1, self.degree + 1)
            if block + i * entry.stride >= 0
        ]

    def reset(self) -> None:
        self._table.clear()
        self._use.clear()
        self._lru = 0
