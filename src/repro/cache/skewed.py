"""Skewed-associative cache (Seznec & Bodin).

The paper's related-work section names skewed associativity as a
representative "advanced caching algorithm" whose benefits are
*orthogonal* to adaptive replacement: skewing attacks conflict misses
by giving each way its own index hash, so blocks that collide in one
way disperse in the others; adaptive replacement attacks policy misses.
This substrate exists to support that orthogonality claim empirically
(``repro-experiments ext-skew``).

Each way is a direct-mapped bank indexed by its own hash of the block
address; replacement among the W candidate slots is pseudo-LRU via
timestamps, as in Seznec's original proposal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.utils.bitops import ilog2


@dataclass(frozen=True)
class SkewedAccessResult:
    """Outcome of one skewed-cache access.

    Attributes:
        hit: whether the reference hit.
        way: the bank that served (hit) or received (fill) the block.
        evicted_block: block address displaced, or None.
    """

    hit: bool
    way: int
    evicted_block: Optional[int] = None


def _mix(value: int, salt: int) -> int:
    """Cheap avalanche hash (xorshift-multiply) with a per-way salt."""
    value ^= salt
    value = (value ^ (value >> 13)) * 0x9E3779B97F4A7C15
    return (value ^ (value >> 29)) & 0xFFFFFFFFFFFFFFFF


class SkewedAssociativeCache:
    """A W-way skewed-associative cache with pseudo-LRU replacement.

    Each way hashes with its own fixed odd salt, so runs are
    deterministic.

    Args:
        config: geometry (same dataclass as the conventional cache; the
            set count becomes the per-way bank depth times ways).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.banks = config.ways
        self.bank_sets = config.num_sets
        self._index_mask = self.bank_sets - 1
        self.salts = [0x517C_C1B7 + 0x2545_F491 * w for w in range(self.banks)]
        # Per bank: block address stored in each slot (None = invalid).
        self._blocks: List[List[Optional[int]]] = [
            [None] * self.bank_sets for _ in range(self.banks)
        ]
        self._stamps: List[List[int]] = [
            [0] * self.bank_sets for _ in range(self.banks)
        ]
        self._clock = 0
        self.stats = CacheStats(per_set_misses=[0] * self.bank_sets)
        self._offset_bits = ilog2(config.line_bytes)

    def bank_index(self, way: int, block: int) -> int:
        """Slot of ``block`` in bank ``way`` (the skewing function)."""
        return _mix(block, self.salts[way]) & self._index_mask

    def access(self, address: int) -> SkewedAccessResult:
        """Reference one byte address."""
        block = address >> self._offset_bits
        self.stats.accesses += 1
        self._clock += 1

        slots = [self.bank_index(w, block) for w in range(self.banks)]
        for way, slot in enumerate(slots):
            if self._blocks[way][slot] == block:
                self.stats.hits += 1
                self._stamps[way][slot] = self._clock
                return SkewedAccessResult(hit=True, way=way)

        self.stats.misses += 1
        self.stats.per_set_misses[slots[0]] += 1
        # Fill an invalid candidate if any, else evict the least
        # recently used among the W candidates.
        victim_way = None
        for way, slot in enumerate(slots):
            if self._blocks[way][slot] is None:
                victim_way = way
                break
        if victim_way is None:
            victim_way = min(
                range(self.banks),
                key=lambda w: self._stamps[w][slots[w]],
            )
        slot = slots[victim_way]
        evicted = self._blocks[victim_way][slot]
        if evicted is not None:
            self.stats.evictions += 1
        self._blocks[victim_way][slot] = block
        self._stamps[victim_way][slot] = self._clock
        return SkewedAccessResult(
            hit=False, way=victim_way, evicted_block=evicted
        )
