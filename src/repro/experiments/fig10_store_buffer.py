"""Figure 10: adaptive benefit vs store buffer capacity.

Paper result: part of the adaptive benefit comes from store-buffer
stalls, so growing the buffer (4 -> 256 entries) shrinks the benefit —
but gracefully: more than half remains even at an unrealistic 256
entries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.experiments.base import (
    Cell, ExperimentResult, Setup, Sweep, sweep_workloads,
)

BUFFER_SIZES = (4, 8, 16, 32, 64, 128, 256)


def cells(setup: Setup, workloads: Optional[Sequence[str]]) -> List[Cell]:
    """An LRU and an adaptive cell per workload and store-buffer size."""
    return [
        Cell.of(setup, name, f"{entries}-entry {label}", {"policy_kind": kind},
                processor=setup.processor.scaled(store_buffer_entries=entries))
        for name in workloads or setup.workloads()
        for entries in BUFFER_SIZES
        for label, kind in (("LRU", "lru"), ("Adaptive", "adaptive"))
    ]


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """Figure 10's series from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="fig10",
        description="Average CPI and adaptive benefit vs store-buffer "
        "entries",
        headers=["entries", "LRU avg CPI", "Adaptive avg CPI",
                 "improvement %"],
    )
    improvements = []
    for entries in BUFFER_SIZES:
        lru_avg = arithmetic_mean(
            [sweep[name, f"{entries}-entry LRU"].cpi for name in workloads]
        )
        adp_avg = arithmetic_mean(
            [sweep[name, f"{entries}-entry Adaptive"].cpi for name in workloads]
        )
        improvement = percent_reduction(lru_avg, adp_avg)
        improvements.append(improvement)
        result.add_row(entries, lru_avg, adp_avg, improvement)
    if improvements[0] > 0:
        result.add_note(
            "Benefit retained at the largest buffer: "
            f"{100.0 * improvements[-1] / improvements[0]:.0f}% of the "
            "4-entry benefit (paper: more than half remains at 256 entries)"
        )
    result.add_note(
        "Fidelity note: the paper's benefit *decays* with buffer size "
        "because its adaptive winners are store-stall-heavy; our "
        "synthetic winners are load-dominated, so the benefit persists "
        "roughly flat instead (the paper's claim that more than half "
        "survives at 256 entries holds a fortiori). Per-workload, the "
        "store-side mechanism is present: loop workloads like art show "
        "their largest improvement at 4 entries."
    )
    return result
