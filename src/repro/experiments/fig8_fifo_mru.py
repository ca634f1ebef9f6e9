"""Figure 8: adapting between FIFO and MRU.

Paper result: MRU alone is usually terrible, but for programs with
large linear loops (one gcc input, art) it beats reasonable policies;
the FIFO/MRU adaptive cache tightly tracks the better component on
every benchmark, demonstrating the generality of the scheme. No
combination beat LRU+LFU overall.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.experiments.base import (
    Cell, ExperimentResult, Setup, Sweep, policy_cells, sweep_workloads,
)

POLICY_SPECS = {
    "FMAdaptive": {"policy_kind": "adaptive", "components": ("fifo", "mru")},
    "FIFO": {"policy_kind": "fifo"},
    "MRU": {"policy_kind": "mru"},
}


def cells(setup: Setup, workloads: Optional[Sequence[str]]) -> List[Cell]:
    """One cell per workload and :data:`POLICY_SPECS` entry."""
    return policy_cells(
        setup, workloads or setup.workloads(), POLICY_SPECS
    )


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """Figure 8's FIFO/MRU MPKI series from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="fig8",
        description="L2 MPKI adapting between FIFO and MRU "
        "(lower is better)",
        headers=["benchmark"] + list(POLICY_SPECS),
    )
    mru_wins = []
    for name in workloads:
        mpkis = {p: sweep[name, p].mpki for p in POLICY_SPECS}
        result.add_row(name, *(mpkis[p] for p in POLICY_SPECS))
        if mpkis["MRU"] < mpkis["FIFO"] * 0.98:
            mru_wins.append(name)
    averages = {
        p: arithmetic_mean([sweep[name, p].mpki for name in workloads])
        for p in POLICY_SPECS
    }
    result.add_row("Average", *(averages[p] for p in POLICY_SPECS))
    result.add_note(
        f"MRU beats FIFO on: {', '.join(mru_wins) or 'none'} "
        "(paper: one gcc input and art)"
    )
    return result
