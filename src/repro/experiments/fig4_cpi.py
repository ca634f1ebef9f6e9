"""Figure 4: CPI per benchmark — Adaptive vs LFU vs LRU.

Paper result: adaptive caching reduces the primary set's average CPI by
12.9% vs LRU; ten executions improve 4-60%; the worst degradation on
any of the 100 programs is 1.2% (unepic).
"""

from __future__ import annotations

from repro.analysis.metrics import (
    arithmetic_mean,
    percent_reduction,
    summarize_policy_metric,
)
from repro.experiments.base import (
    ExperimentResult, Setup, Sweep, sweep_workloads,
)
from repro.experiments import fig3_mpki
from repro.experiments.fig3_mpki import POLICY_SPECS

#: Figure 4 reads Figure 3's cells, so the sweep pass simulates them once.
cells = fig3_mpki.cells


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """Figure 4's per-benchmark CPI series from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="fig4",
        description="Cycles per instruction (lower is better)",
        headers=["benchmark"] + list(POLICY_SPECS),
    )
    per_workload = {}
    for name in workloads:
        cpis = {p: sweep[name, p].cpi for p in POLICY_SPECS}
        per_workload[name] = cpis
        result.add_row(name, *(cpis[p] for p in POLICY_SPECS))
    averages = {
        p: arithmetic_mean([per_workload[name][p] for name in workloads])
        for p in POLICY_SPECS
    }
    result.add_row("Average", *(averages[p] for p in POLICY_SPECS))

    summary = summarize_policy_metric(per_workload, "LRU", "Adaptive")
    result.add_note(
        "Adaptive improves average CPI vs LRU by "
        f"{percent_reduction(averages['LRU'], averages['Adaptive']):.1f}% "
        "(paper: 12.9% on the primary set)"
    )
    result.add_note(
        "Worst per-benchmark CPI degradation: "
        f"{summary['worst_degradation_percent']:.2f}% (paper: 1.2%, unepic)"
    )
    return result
