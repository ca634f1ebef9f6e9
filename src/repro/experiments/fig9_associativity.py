"""Figure 9: adaptive benefit vs set associativity.

Paper result: with capacity fixed at 512 KB, the adaptive policy's
benefit (average CPI improvement and miss reduction vs LRU) holds from
4-way through 32-way and *increases slightly* at high associativities
(16/32-way), suggesting effectiveness for future highly-associative
last-level caches.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.experiments.base import (
    Cell, ExperimentResult, Setup, Sweep, sweep_workloads,
)

ASSOCIATIVITIES = (4, 8, 16, 32)


def cells(setup: Setup, workloads: Optional[Sequence[str]]) -> List[Cell]:
    """An LRU and an adaptive cell per workload and associativity.

    Capacity stays fixed, so doubling the ways halves the sets, exactly
    as in the paper ("the 16-way cache has only half as many sets as the
    baseline 8-way cache"). Workload traces are generated once against
    the baseline geometry and replayed against every variant.
    """
    return [
        Cell.of(setup, name, f"{ways}-way {label}", {"policy_kind": kind},
                l2=setup.l2.scaled(ways=ways))
        for name in workloads or setup.workloads()
        for ways in ASSOCIATIVITIES
        for label, kind in (("LRU", "lru"), ("Adaptive", "adaptive"))
    ]


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """Figure 9's series from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="fig9",
        description="Adaptive benefit vs associativity "
        "(capacity fixed; higher is better)",
        headers=["ways", "CPI improvement %", "miss reduction %"],
    )
    for ways in ASSOCIATIVITIES:
        lru = [sweep[name, f"{ways}-way LRU"] for name in workloads]
        adp = [sweep[name, f"{ways}-way Adaptive"] for name in workloads]
        result.add_row(
            ways,
            percent_reduction(
                arithmetic_mean([r.cpi for r in lru]),
                arithmetic_mean([r.cpi for r in adp]),
            ),
            percent_reduction(
                arithmetic_mean([r.l2_misses for r in lru]),
                arithmetic_mean([r.l2_misses for r in adp]),
            ),
        )
    result.add_note(
        "Paper: benefit is robust across 4..32 ways and increases "
        "slightly for 16- and 32-way caches."
    )
    return result
