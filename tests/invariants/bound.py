"""The Appendix's 2x miss bound, read off the online engine.

The paper proves that the counter-history adaptive policy suffers at
most 2x the misses of its better component, per set, plus a warm-up
constant. The proof never mentions set indices — it is a statement
about one adaptation unit running Algorithm 1 under demand caching —
so it transfers verbatim to online shards: drive every access through
``get_or_compute`` (every miss fills, as the theory assumes), use
counter histories and full fingerprints (the shadow directories are
then exact component simulations), and compare each shard's demand
misses against its own shadow directories.

Reuses :class:`repro.core.theory.BoundReport` with shards standing in
for sets, so the report reads as the simulator's does.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.history import CounterHistory
from repro.core.theory import BoundReport
from repro.online.engine import AdaptiveKVCache


def bound_engine(
    capacity_entries: int,
    num_shards: int,
    component_names: Sequence[str] = ("lru", "lfu"),
    seed: int = 0,
) -> AdaptiveKVCache:
    """An engine in the bound-checkable configuration: counter
    histories and full fingerprints, so the shadow directories are
    exact component simulations."""
    return AdaptiveKVCache(
        capacity_entries=capacity_entries,
        num_shards=num_shards,
        policy="adaptive",
        components=tuple(component_names),
        partial_bits=None,
        history_factory=counter_history,
        seed=seed,
    )


def counter_history(num_sets: int) -> CounterHistory:
    """The bound's miss history, also what a recovery must pass back
    (a callable is not recorded in the manifest)."""
    return CounterHistory(num_sets)


def engine_bound_report(cache: AdaptiveKVCache) -> BoundReport:
    """The bound report of an engine that has served its stream.

    Each shard is one bound unit: its demand misses against each of
    its shadow directories' misses, within factor 2 plus a slack of 2x
    the largest shard capacity, covering warm-up misses exactly as
    :func:`repro.core.theory.check_miss_bound` does for sets.
    """
    num_components = len(cache.shards[0].policy.shadows)
    return BoundReport(
        adaptive_misses=[shard.misses for shard in cache.shards],
        component_misses=[
            [shard.policy.shadows[c].misses for shard in cache.shards]
            for c in range(num_components)
        ],
        slack=2 * max(shard.capacity for shard in cache.shards),
        factor=2.0,
    )
