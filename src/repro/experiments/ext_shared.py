"""Extension: adaptive replacement for shared caches (Section 6).

The paper's first future-work item: dissimilar co-running applications
should give the adaptive mechanism *more* opportunity, because the
shared cache simultaneously sees LRU-friendly and LFU-friendly traffic
in different sets. This experiment interleaves pairs of dissimilar
primary-set workloads over one shared L2 and compares the adaptive
cache against its components on the combined stream.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.cache.cache import SetAssociativeCache
from repro.experiments.base import ExperimentResult, Setup, build_l2_policy
from repro.workloads.multicore import build_shared_workload

# Dissimilar pairs: one recency-friendly core + one frequency/loop core.
PAIRS: List[Tuple[str, str]] = [
    ("lucas", "tiff2rgba"),
    ("gcc-2", "art-1"),
    ("bzip2", "xanim"),
    ("parser", "x11quake-1"),
    ("vpr-1", "mcf"),
]


def _misses(trace, config, policy_kind: str) -> int:
    policy = build_l2_policy(config, policy_kind)
    cache = SetAssociativeCache(config, policy)
    addresses, writes = trace.memory_stream()
    cache.access_many(addresses, writes)
    return cache.stats.misses


def run(setup: Setup) -> ExperimentResult:
    """Compare policies on the two-core shared-cache mixes of :data:`PAIRS`."""
    accesses_per_core = setup.accesses // 2

    result = ExperimentResult(
        experiment="ext-shared",
        description="Shared-L2 two-core mixes: misses per policy "
        "(lower is better; Section 6 future work)",
        headers=["mix", "Adaptive", "LFU", "LRU",
                 "vs LRU %", "vs best fixed %"],
    )
    lru_gains = []
    best_gains = []
    for pair in PAIRS:
        trace = build_shared_workload(pair, setup.l2, accesses_per_core)
        misses = {
            kind: _misses(trace, setup.l2, kind)
            for kind in ("adaptive", "lfu", "lru")
        }
        best_fixed = min(misses["lfu"], misses["lru"])
        lru_gain = percent_reduction(misses["lru"], misses["adaptive"])
        best_gain = percent_reduction(best_fixed, misses["adaptive"])
        lru_gains.append(lru_gain)
        best_gains.append(best_gain)
        result.add_row(
            "+".join(pair), misses["adaptive"], misses["lfu"],
            misses["lru"], lru_gain, best_gain,
        )
    result.add_note(
        "The adaptive shared cache beats the LRU default by "
        f"{arithmetic_mean(lru_gains):+.1f}% on average and stays within "
        f"{-min(best_gains):.1f}% of the best fixed policy on every mix — "
        "without anyone knowing, at design time, which fixed policy each "
        "mix would need."
    )
    return result
