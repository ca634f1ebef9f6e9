"""SRAM storage accounting for adaptive caches (Section 3.2).

Reproduces the paper's bit-counting: a conventional 512 KB 8-way cache
with 64 B lines needs 544 KB of SRAM (data + tags + meta); full-tag
adaptivity raises that to 598 KB (+9.9%); 8-bit partial tags cut it to
566 KB (+4.0%); with 128 B lines the overhead is 2.1%. SBAR-style set
sampling (Section 4.7) reduces it to ~0.16% (full-tag leaders) and
~0.09% (partial-tag leaders).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.cache.config import CacheConfig
from repro.utils.bitops import ilog2

BITS_PER_KB = 8 * 1024


@dataclass(frozen=True)
class StorageModel:
    """Bit-level storage model of a (possibly adaptive) cache.

    Attributes:
        config: geometry of the underlying cache.

    Class constants:
        state_bits_per_line: non-tag metadata per line in the main array
            (LRU state, valid, dirty, coherence, ...). The paper's
            footnote 2 budgets tag+meta at "about 32 bits" per line with
            a 24-bit tag, i.e. 8 bits of state.
        policy_meta_bits: per-line policy metadata in each parallel tag
            array ("4± bits ... e.g., LRU ordering or LFU counts").
        history_bits_per_set: miss-history buffer width m (8 = the
            associativity of the evaluated cache).
    """

    config: CacheConfig
    state_bits_per_line: ClassVar[int] = 8
    policy_meta_bits: ClassVar[int] = 4
    history_bits_per_set: ClassVar[int] = 8

    @property
    def recency_bits_per_line(self) -> int:
        """LRU state per line, deducted once from the duplicated arrays.

        The paper avoids double-counting LRU meta-data between the main
        tag array and the LRU component array: 3 bits/line for an 8-way
        cache (the "minus 3KB" of Section 3.2).
        """
        return ilog2(self.config.ways) if self.config.ways > 1 else 1

    def data_kb(self) -> float:
        """Data array size in KB."""
        return self.config.size_bytes / 1024

    def main_tag_meta_kb(self) -> float:
        """Main tag array + per-line state, in KB."""
        bits = self.config.num_lines * (
            self.config.tag_bits + self.state_bits_per_line
        )
        return bits / BITS_PER_KB

    def conventional_total_kb(self) -> float:
        """Total SRAM of the conventional cache (data + tags + state)."""
        return self.data_kb() + self.main_tag_meta_kb()

    def parallel_array_kb(self, partial_bits: int = None) -> float:
        """One parallel tag array, full tags or ``partial_bits``-bit tags."""
        tag_bits = self.config.tag_bits if partial_bits is None else partial_bits
        if tag_bits <= 0:
            raise ValueError(f"tag bits must be positive, got {tag_bits}")
        bits = self.config.num_lines * (tag_bits + self.policy_meta_bits)
        return bits / BITS_PER_KB

    def history_kb(self) -> float:
        """All per-set miss-history buffers."""
        return self.config.num_sets * self.history_bits_per_set / BITS_PER_KB

    def lru_dedup_kb(self) -> float:
        """LRU metadata counted once instead of twice (subtracted)."""
        return self.config.num_lines * self.recency_bits_per_line / BITS_PER_KB

    def adaptive_total_kb(self, partial_bits: int = None) -> float:
        """Total SRAM of the two-component adaptive cache.

        Args:
            partial_bits: width of partial tags in the parallel arrays;
                None means full tags.
        """
        return (
            self.conventional_total_kb()
            + 2 * self.parallel_array_kb(partial_bits)
            + self.history_kb()
            - self.lru_dedup_kb()
        )

    def adaptive_overhead_percent(self, partial_bits: int = None) -> float:
        """Two-component adaptive overhead relative to the conventional
        total, in %."""
        base = self.conventional_total_kb()
        extra = self.adaptive_total_kb(partial_bits) - base
        return 100.0 * extra / base

    def sbar_total_kb(self, leader_sets: int, partial_bits: int = None) -> float:
        """Total SRAM of the SBAR-like cache (Section 4.7).

        Only ``leader_sets`` sets carry the duplicated tag structures and
        history; followers carry nothing extra (policy metadata for the
        resident blocks is already part of the baseline state bits).
        """
        if not 0 < leader_sets <= self.config.num_sets:
            raise ValueError(
                f"leader_sets must be in (0, {self.config.num_sets}], "
                f"got {leader_sets}"
            )
        tag_bits = self.config.tag_bits if partial_bits is None else partial_bits
        leader_lines = leader_sets * self.config.ways
        parallel_bits = 2 * leader_lines * (tag_bits + self.policy_meta_bits)
        history_bits = leader_sets * self.history_bits_per_set
        return (
            self.conventional_total_kb()
            + (parallel_bits + history_bits) / BITS_PER_KB
        )

    def sbar_overhead_percent(
        self, leader_sets: int, partial_bits: int = None
    ) -> float:
        """SBAR overhead relative to the conventional total, in %."""
        base = self.conventional_total_kb()
        extra = self.sbar_total_kb(leader_sets, partial_bits) - base
        return 100.0 * extra / base
