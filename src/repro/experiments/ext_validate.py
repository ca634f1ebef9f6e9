"""Cross-model validation of the timing substitution.

DESIGN.md's boldest substitution replaces MASE with an aggregate
event-driven timing model. This experiment runs the same workloads and
L2 policies through **two structurally different processor models** —
the aggregate model (`repro.cpu.timing`) and the per-instruction
scoreboard (`repro.cpu.scoreboard`) — and compares the *conclusions*:
the per-workload adaptive-vs-LRU CPI improvement. If the improvement
agrees in sign and rough magnitude across models, the paper-shape
results do not hinge on either model's simplifications.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.cache.cache import SetAssociativeCache
from repro.cpu.scoreboard import scoreboard_simulate
from repro.cpu.timing import compile_workload, simulate
from repro.experiments.base import ExperimentResult, Setup, build_l2_policy

DEFAULT_WORKLOADS = ["lucas", "art-1", "tiff2rgba", "ammp", "mcf", "swim"]


def run(setup: Setup, workloads: Optional[Sequence[str]]) -> ExperimentResult:
    """Adaptive-vs-LRU improvement under both processor models."""
    from repro.experiments.base import WorkloadCache

    cache_ws = WorkloadCache(setup)
    workloads = list(workloads or DEFAULT_WORKLOADS)

    result = ExperimentResult(
        experiment="ext-validate",
        description="Adaptive vs LRU CPI improvement under the "
        "aggregate timing model and the per-instruction scoreboard "
        "reference model (methodology cross-check)",
        headers=["benchmark", "aggregate %", "scoreboard %"],
    )
    aggregate_improvements = []
    scoreboard_improvements = []
    for name in workloads:
        trace = cache_ws.trace(name)
        compiled = compile_workload(trace, setup.processor)
        cpis = {}
        for model in ("aggregate", "scoreboard"):
            for policy_kind in ("lru", "adaptive"):
                policy = build_l2_policy(setup.l2, policy_kind)
                l2 = SetAssociativeCache(setup.l2, policy)
                if model == "aggregate":
                    cpis[(model, policy_kind)] = simulate(
                        compiled, l2, setup.processor
                    ).cpi
                else:
                    cpis[(model, policy_kind)] = scoreboard_simulate(
                        trace, l2, setup.processor
                    ).cpi
        aggregate = percent_reduction(
            cpis[("aggregate", "lru")], cpis[("aggregate", "adaptive")]
        )
        scoreboard = percent_reduction(
            cpis[("scoreboard", "lru")], cpis[("scoreboard", "adaptive")]
        )
        aggregate_improvements.append(aggregate)
        scoreboard_improvements.append(scoreboard)
        result.add_row(name, aggregate, scoreboard)
    result.add_row(
        "Average",
        arithmetic_mean(aggregate_improvements),
        arithmetic_mean(scoreboard_improvements),
    )
    agreements = sum(
        1
        for a, s in zip(aggregate_improvements, scoreboard_improvements)
        if (a > 1.0) == (s > 1.0) or abs(a - s) < 2.0
    )
    result.add_note(
        f"Sign/magnitude agreement on {agreements}/{len(workloads)} "
        "workloads: the adaptive benefit is a property of the cache "
        "behaviour, not of the timing model's accounting structure."
    )
    return result
