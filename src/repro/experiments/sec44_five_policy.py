"""Section 4.4: generalized adaptivity over five policies.

Paper result: adapting over LRU+LFU+FIFO+MRU+Random (an unrealistically
expensive configuration — five parallel tag arrays) is *not* clearly
superior to plain LRU/LFU adaptivity: some benchmarks gain up to 10%
CPI, others lose as much, and the cumulative CPI is virtually
identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.experiments.base import (
    Cell, ExperimentResult, Setup, Sweep, policy_cells, sweep_workloads,
)

POLICY_SPECS = {
    "Adaptive(LRU+LFU)": {"policy_kind": "adaptive",
                          "components": ("lru", "lfu")},
    "Adaptive(5 policies)": {"policy_kind": "adaptive5"},
    "LRU": {"policy_kind": "lru"},
}


def cells(setup: Setup, workloads: Optional[Sequence[str]]) -> List[Cell]:
    """One cell per workload and :data:`POLICY_SPECS` entry."""
    return policy_cells(
        setup, workloads or setup.workloads(), POLICY_SPECS
    )


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """The Section 4.4 comparison from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="sec44",
        description="Five-policy adaptivity vs LRU/LFU adaptivity "
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
    result.add_note(
        "Five-policy vs two-policy average CPI difference: "
        f"{percent_reduction(averages['Adaptive(LRU+LFU)'], averages['Adaptive(5 policies)']):+.2f}% "
        "(paper: virtually identical)"
    )
    return result
