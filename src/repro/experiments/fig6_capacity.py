"""Figure 6: partially-tagged adaptivity vs simply building a bigger cache.

Paper result: the adaptive cache (+4.0% SRAM with 8-bit partial tags)
outperforms conventional LRU caches grown to 9 ways (+12.5% storage)
and even 10 ways (+25% storage) — beating the 10-way 640 KB cache by
2.8% average CPI. Using the resources intelligently beats using more of
them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.cache.overhead import StorageModel
from repro.experiments.base import (
    Cell, ExperimentResult, Setup, Sweep, sweep_workloads,
)


def _configurations(setup: Setup) -> list:
    """(label, policy spec, L2 config, storage overhead %) per bar."""
    base_l2 = setup.l2
    nine_way = base_l2.scaled(
        size_bytes=base_l2.size_bytes // base_l2.ways * 9, ways=9
    )
    ten_way = base_l2.scaled(
        size_bytes=base_l2.size_bytes // base_l2.ways * 10, ways=10
    )
    storage = StorageModel(base_l2)
    return [
        ("Adaptive (full tags)",
         {"policy_kind": "adaptive"}, base_l2,
         storage.adaptive_overhead_percent()),
        ("Adaptive (8-bit tags)",
         {"policy_kind": "adaptive", "partial_bits": 8}, base_l2,
         storage.adaptive_overhead_percent(8)),
        (f"LRU ({base_l2.ways}-way)", {"policy_kind": "lru"}, base_l2, 0.0),
        ("LRU (9-way, +12.5% data)", {"policy_kind": "lru"}, nine_way, 12.5),
        ("LRU (10-way, +25% data)", {"policy_kind": "lru"}, ten_way, 25.0),
    ]


def cells(setup: Setup, workloads: Optional[Sequence[str]]) -> List[Cell]:
    """One cell per workload and configuration (label, policy, L2)."""
    configurations = _configurations(setup)
    return [
        Cell.of(setup, name, label, spec, l2=l2_config)
        for name in workloads or setup.workloads()
        for label, spec, l2_config, _overhead in configurations
    ]


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """Figure 6's CPI comparison from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="fig6",
        description="Average CPI: adaptive replacement vs larger "
        "conventional caches (lower is better)",
        headers=["configuration", "avg CPI", "storage overhead %"],
    )
    averages = {}
    for label, _spec, _l2_config, overhead in _configurations(setup):
        averages[label] = arithmetic_mean(
            [sweep[name, label].cpi for name in workloads]
        )
        result.add_row(label, averages[label], overhead)

    adaptive8 = averages["Adaptive (8-bit tags)"]
    ten = averages["LRU (10-way, +25% data)"]
    result.add_note(
        "Adaptive (8-bit tags) vs 10-way LRU: "
        f"{percent_reduction(ten, adaptive8):.1f}% better CPI at less than "
        "one sixth of the storage overhead (paper: 2.8% better, 4.0% vs 25%)"
    )
    return result
