"""Cache access statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class CacheStats:
    """Counters accumulated by a :class:`SetAssociativeCache`.

    ``per_set_misses`` supports the paper's per-set analyses (the
    theoretical bound is per set; Figure 7 maps behaviour per set).
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    per_set_misses: List[int] = field(default_factory=list)

    @property
    def miss_ratio(self) -> float:
        """Misses / accesses; 0.0 when nothing was accessed."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """Hits / accesses; 0.0 when nothing was accessed."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def mpki(self, instructions: int) -> float:
        """Misses per thousand instructions, the paper's Figure 3 metric."""
        if instructions <= 0:
            raise ValueError(f"instructions must be positive, got {instructions}")
        return 1000.0 * self.misses / instructions

    def reset(self) -> None:
        """Zero all counters, keeping the per-set vector length."""
        sets = len(self.per_set_misses)
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.per_set_misses = [0] * sets
