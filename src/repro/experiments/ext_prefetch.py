"""Extension: adaptive hybrid prefetching (Section 6).

The paper's second future-work item: apply the adaptivity machinery to
hybrid prefetchers, replacing hit/miss with useful/not-useful prefetch.
This experiment measures demand MPKI with no prefetching, each
component prefetcher alone, and the adaptive hybrid, on a slice of the
primary set that contains both stream-friendly (strided sweeps — stride
prefetching shines) and pointer-chasing workloads (prefetching is pure
pollution).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.cache.cache import SetAssociativeCache
from repro.experiments.base import ExperimentResult, Setup, WorkloadCache
from repro.policies.lru import LRUPolicy
from repro.prefetch.base import Prefetcher
from repro.prefetch.engine import PrefetchingCache
from repro.prefetch.hybrid import AdaptiveHybridPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.stride import StridePrefetcher

DEFAULT_WORKLOADS = ["swim", "applu", "equake", "mcf", "ft", "lucas",
                     "tiff2rgba", "bzip2"]


def _prefetchers() -> Dict[str, Callable[[], Optional[Prefetcher]]]:
    return {
        "none": lambda: None,
        "nextline": lambda: NextLinePrefetcher(degree=2),
        "stride": StridePrefetcher,
        "hybrid": lambda: AdaptiveHybridPrefetcher(
            [NextLinePrefetcher(degree=2), StridePrefetcher()]
        ),
    }


def run(setup: Setup, workloads: Optional[Sequence[str]]) -> ExperimentResult:
    """Demand MPKI per workload for each prefetch configuration."""
    cache_ws = WorkloadCache(setup)
    workloads = list(workloads or DEFAULT_WORKLOADS)
    configurations = _prefetchers()

    result = ExperimentResult(
        experiment="ext-prefetch",
        description="Demand MPKI with component vs adaptive-hybrid "
        "prefetching (lower is better; Section 6 future work)",
        headers=["benchmark"] + list(configurations),
    )
    per_config = {label: [] for label in configurations}
    accuracies = {}
    for name in workloads:
        trace = cache_ws.trace(name)
        instructions = trace.instruction_count
        addresses, writes = trace.memory_stream()
        row = [name]
        for label, factory in configurations.items():
            config = setup.l2
            cache = SetAssociativeCache(
                config, LRUPolicy(config.num_sets, config.ways)
            )
            prefetcher = factory()
            if prefetcher is None:
                for address, is_write in zip(addresses, writes):
                    cache.access(address, is_write=is_write)
                mpki = cache.stats.mpki(instructions)
            else:
                engine = PrefetchingCache(cache, prefetcher)
                for address, is_write in zip(addresses, writes):
                    engine.access(address, is_write=is_write)
                mpki = engine.stats.mpki(instructions)
                if label == "hybrid":
                    accuracies[name] = engine.stats.accuracy
            per_config[label].append(mpki)
            row.append(mpki)
        result.rows.append(row)
    result.add_row(
        "Average",
        *(arithmetic_mean(per_config[label]) for label in configurations),
    )
    result.add_note(
        "The hybrid should track the better component per workload "
        "(stride on sweeps, restraint on pointer chasing), the same "
        "shape the adaptive cache shows for replacement policies."
    )
    if accuracies:
        result.add_note(
            "Hybrid prefetch accuracy per workload: "
            + ", ".join(f"{k}={v:.2f}" for k, v in accuracies.items())
        )
    return result
