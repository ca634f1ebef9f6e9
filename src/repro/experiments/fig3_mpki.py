"""Figure 3: L2 MPKI per benchmark — Adaptive vs LFU vs LRU.

Paper result: the LRU/LFU adaptive cache tracks the better component on
every benchmark (lucas follows LRU, art follows LFU) and reduces the
average MPKI of the 26-program primary set by 19.0% versus LRU (18.6%
over all 100 programs).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.experiments.base import (
    Cell, ExperimentResult, Setup, Sweep, policy_cells, sweep_workloads,
)

POLICY_SPECS = {
    "Adaptive": {"policy_kind": "adaptive", "components": ("lru", "lfu")},
    "LFU": {"policy_kind": "lfu"},
    "LRU": {"policy_kind": "lru"},
}


def cells(setup: Setup, workloads: Optional[Sequence[str]]) -> List[Cell]:
    """One cell per workload and :data:`POLICY_SPECS` entry (Figures 3
    and 4 share them)."""
    return policy_cells(setup, workloads or setup.workloads(),
                        POLICY_SPECS)


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """Figure 3's per-benchmark MPKI series from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="fig3",
        description="L2 misses per thousand instructions (lower is better)",
        headers=["benchmark"] + list(POLICY_SPECS),
    )
    for name in workloads:
        result.add_row(name, *(sweep[name, p].mpki for p in POLICY_SPECS))
    averages = {
        p: arithmetic_mean([sweep[name, p].mpki for name in workloads])
        for p in POLICY_SPECS
    }
    result.add_row("Average", *(averages[p] for p in POLICY_SPECS))
    result.add_note(
        "Adaptive reduces average MPKI vs LRU by "
        f"{percent_reduction(averages['LRU'], averages['Adaptive']):.1f}% "
        "(paper: 19.0% on the primary set)"
    )
    result.add_note(
        "Adaptive reduces average MPKI vs LFU by "
        f"{percent_reduction(averages['LFU'], averages['Adaptive']):.1f}%"
    )
    return result
