"""Section 4.7: eliminating the overheads with set sampling (SBAR).

Paper result: an SBAR-like cache (leader sets + global selector, no
duplicate tags for followers) achieves a 12.5% average CPI improvement
vs the regular adaptive cache's 12.9%, at 0.16% hardware overhead
(0.09% when the leaders use 8-bit partial tags) — a little less robust
(9% worse than regular adaptivity on ammp, 4% on xanim) but very
competitive.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.cache.overhead import StorageModel
from repro.experiments.base import (
    Cell, ExperimentResult, Setup, Sweep, policy_cells, sweep_workloads,
)

POLICY_SPECS = {
    "Adaptive": {"policy_kind": "adaptive", "components": ("lru", "lfu")},
    "SBAR": {"policy_kind": "sbar", "components": ("lru", "lfu")},
    "SBAR (8-bit leaders)": {"policy_kind": "sbar",
                             "components": ("lru", "lfu"),
                             "partial_bits": 8},
    "LRU": {"policy_kind": "lru"},
}

#: Leader sets of each SBAR cell (Section 4.7 uses 16).
NUM_LEADERS = 16


def cells(setup: Setup, workloads: Optional[Sequence[str]]) -> List[Cell]:
    """One cell per workload and :data:`POLICY_SPECS` entry, the SBAR
    ones with :data:`NUM_LEADERS` leader sets."""
    specs = {
        label: dict(kwargs, num_leaders=NUM_LEADERS)
        if kwargs["policy_kind"] == "sbar" else kwargs
        for label, kwargs in POLICY_SPECS.items()
    }
    return policy_cells(setup, workloads or setup.workloads(), specs)


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """The Section 4.7 comparison from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="sec47",
        description="SBAR-like set sampling vs full adaptivity "
        "(CPI, lower is better)",
        headers=["benchmark"] + list(POLICY_SPECS),
    )
    for name in workloads:
        result.add_row(name, *(sweep[name, p].cpi for p in POLICY_SPECS))
    averages = {
        p: arithmetic_mean([sweep[name, p].cpi for name in workloads])
        for p in POLICY_SPECS
    }
    result.add_row("Average", *(averages[p] for p in POLICY_SPECS))

    for label in ("Adaptive", "SBAR", "SBAR (8-bit leaders)"):
        result.add_note(
            f"{label}: {percent_reduction(averages['LRU'], averages[label]):.1f}% "
            "average CPI improvement vs LRU"
        )
    storage = StorageModel(setup.l2)
    result.add_note(
        "Hardware overhead — adaptive full tags "
        f"{storage.adaptive_overhead_percent():.1f}%, 8-bit partial "
        f"{storage.adaptive_overhead_percent(8):.1f}%, SBAR "
        f"{storage.sbar_overhead_percent(NUM_LEADERS):.2f}%, SBAR 8-bit "
        f"{storage.sbar_overhead_percent(NUM_LEADERS, 8):.2f}% "
        "(paper at 512 KB: 9.9%/4.0%/0.16%/0.09%)"
    )
    return result
