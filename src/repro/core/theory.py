"""Empirical checks of the theoretical miss bound (Appendix).

The paper proves that the counter-based adaptive policy suffers at most
**2x** the misses of the better component policy, per set, plus an
additive constant that covers warm-up. These helpers run the adaptive
cache and its components on an arbitrary block trace and report the
observed per-set factors, so property-based tests can hammer the bound
with random and adversarial traces.

With full tags, the component shadow arrays inside the adaptive policy
*are* exact simulations of the component caches, so their per-set miss
counts are the comparison baseline — no separate runs needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.history import CounterHistory
from repro.core.multi import make_adaptive


@dataclass(frozen=True)
class BoundReport:
    """Result of one bound check.

    Attributes:
        adaptive_misses: per-set miss counts of the adaptive cache.
        component_misses: per-component, per-set miss counts.
        slack: the additive constant allowed per set.
        factor: the multiplicative bound being checked (2.0 per the
            Appendix for the counter-based selector).
    """

    adaptive_misses: List[int]
    component_misses: List[List[int]]
    slack: int
    factor: float

    def best_component_misses(self, set_index: int) -> int:
        """Fewest misses any component suffered on ``set_index``."""
        return min(c[set_index] for c in self.component_misses)

    def violations(self) -> List[int]:
        """Sets where adaptive misses exceed factor*best + slack."""
        return [
            s
            for s, a in enumerate(self.adaptive_misses)
            if a > self.factor * self.best_component_misses(s) + self.slack
        ]

    def holds(self) -> bool:
        """True iff the bound holds on every set."""
        return not self.violations()

    def worst_ratio(self) -> float:
        """max over sets of adaptive/(best + slack); <= factor iff holds."""
        worst = 0.0
        for s, a in enumerate(self.adaptive_misses):
            denom = self.best_component_misses(s) + self.slack
            if denom > 0:
                worst = max(worst, a / denom)
        return worst


def check_miss_bound(
    block_addresses: Sequence[int],
    config: CacheConfig,
    component_names: Sequence[str] = ("lru", "lfu"),
) -> BoundReport:
    """Run the counter-history adaptive cache and report the bound.

    Args:
        block_addresses: line-granular addresses (no offset bits).
        config: cache geometry.
        component_names: component policies to adapt over.

    The bound is the Appendix's factor 2 for counters plus, per set,
    2*ways, covering the warm-up misses the asymptotic statement
    ignores.
    """
    policy = make_adaptive(
        config.num_sets,
        config.ways,
        component_names,
        history_factory=lambda n: CounterHistory(n),
    )
    cache = SetAssociativeCache(config, policy)
    for block in block_addresses:
        cache.access(block << config.offset_bits)
    return BoundReport(
        adaptive_misses=list(cache.stats.per_set_misses),
        component_misses=[list(s.per_set_misses) for s in policy.shadows],
        slack=2 * config.ways,
        factor=2.0,
    )


def adversarial_trace(
    ways: int,
    phase_length: int,
    phases: int,
    num_sets: int = 1,
) -> List[int]:
    """A trace that alternates LRU-hostile and LFU-hostile phases.

    Odd phases cycle over ``ways + 1`` distinct blocks (a loop slightly
    larger than the set — LRU misses on every access, while LFU settles
    on a resident subset). Even phases stream fresh single-use blocks
    interleaved with one hot block (LFU's counters protect stale blocks,
    LRU adapts immediately). An adaptive policy must switch components
    every phase to stay within its bound.

    Returns block addresses all mapping to set 0 of a ``num_sets``-set
    cache.
    """
    if ways <= 0 or phase_length <= 0 or phases <= 0:
        raise ValueError("ways, phase_length and phases must be positive")
    trace: List[int] = []
    fresh = 1000  # block ids disjoint from the loop blocks
    for phase in range(phases):
        if phase % 2 == 0:
            loop = [i for i in range(ways + 1)]
            for i in range(phase_length):
                trace.append(loop[i % len(loop)])
        else:
            hot = ways + 2
            for i in range(phase_length):
                if i % 2 == 0:
                    trace.append(hot)
                else:
                    fresh += 1
                    trace.append(fresh)
    # Map every block id onto set 0 of an num_sets-set cache.
    return [block * num_sets for block in trace]
