"""Extension experiment: graceful degradation under injected faults.

The paper argues (Sections 3.1-3.2) that the adaptive machinery's extra
state is performance-only: shadow tags, miss histories and selector
counters steer *which* component policy is imitated, but the real
cache's tag/data arrays decide *correctness*, and partial tags already
tolerate aliasing by design. This experiment makes that robustness
claim measurable: it arms a
:class:`~repro.faults.injector.FaultInjector` on the adaptive L2 at
increasing fault rates and reports the MPKI degradation, while
asserting the invariants that faults must never violate:

* every run completes — a fault is never worse than a crash;
* cache statistics stay internally consistent
  (``hits + misses == accesses``);
* an *armed but quiet* injector (rate 0) is bit-identical to a
  fault-free run — the hooks themselves perturb nothing;
* a conventional cache (LRU) carries no auxiliary state, so the fault
  model cannot touch it at all: demand hits and misses are trivially
  identical to a fault-free run, anchoring the comparison column.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.metrics import arithmetic_mean
from repro.cache.cache import SetAssociativeCache
from repro.cpu.timing import (
    CompiledWorkload,
    TimingResult,
    compile_workload,
    simulate,
)
from repro.experiments.base import (
    Cell,
    ExperimentResult,
    Setup,
    WorkloadCache,
    build_l2_policy,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultLog, FaultPlan

DEFAULT_WORKLOADS = ["lucas", "art-1", "ammp", "mcf", "unepic", "swim"]

#: Per-access fault probabilities swept; each applies uniformly to
#: shadow tags, miss histories and the selector.
RATES: Tuple[float, ...] = (0.001, 0.01, 0.05)


def _simulate_adaptive(
    setup: Setup,
    compiled: CompiledWorkload,
    plan: Optional[FaultPlan],
) -> Tuple[TimingResult, Optional[FaultLog]]:
    """One adaptive run, optionally under a fault plan, with invariants."""
    name = compiled.name
    policy = build_l2_policy(setup.l2, "adaptive")
    injector = FaultInjector(plan).arm(policy) if plan is not None else None
    l2 = SetAssociativeCache(setup.l2, policy)
    result = simulate(compiled, l2, setup.processor)
    stats = l2.stats
    if stats.hits + stats.misses != stats.accesses:
        raise RuntimeError(
            f"fault injection broke statistics consistency on {name}: "
            f"{stats.hits} hits + {stats.misses} misses != "
            f"{stats.accesses} accesses"
        )
    if stats.evictions > stats.misses:
        raise RuntimeError(
            f"fault injection broke eviction accounting on {name}: "
            f"{stats.evictions} evictions > {stats.misses} misses"
        )
    return result, (injector.log if injector is not None else None)


def run(setup: Setup, workloads: Optional[Sequence[str]]) -> ExperimentResult:
    """MPKI degradation of the adaptive L2 versus each of :data:`RATES`.

    ``workloads`` defaults to a locality-diverse six-program slice of
    the primary set. Each injector's corruption stream is seeded by the
    workload's index and the rate's.
    """
    cache_ws = WorkloadCache(setup)
    workloads = list(workloads or DEFAULT_WORKLOADS)
    rates = list(RATES)

    headers = (
        ["benchmark", "LRU MPKI", "adaptive MPKI", "armed rate 0"]
        + [f"rate {rate:g}" for rate in rates]
        + ["worst Δ%", "faults"]
    )
    result = ExperimentResult(
        experiment="ext-faults",
        description="Adaptive L2 MPKI under fault injection into shadow "
        "tags, miss histories and the selector (graceful-degradation "
        "check; LRU has no auxiliary state and anchors the comparison)",
        headers=headers,
    )

    per_rate_deltas: List[List[float]] = [[] for _ in rates]
    worst_deltas: List[float] = []
    for index, name in enumerate(workloads):
        compiled = compile_workload(cache_ws.trace(name), setup.processor)
        lru = Cell.of(setup, name, "LRU", {"policy_kind": "lru"}).simulate(compiled)
        baseline, _ = _simulate_adaptive(setup, compiled, None)
        armed_quiet, _ = _simulate_adaptive(
            setup, compiled, FaultPlan.uniform(0.0, seed=index)
        )
        if armed_quiet.l2_misses != baseline.l2_misses:
            raise RuntimeError(
                f"an armed-but-quiet injector perturbed {name}: "
                f"{armed_quiet.l2_misses} != {baseline.l2_misses} misses"
            )
        faulted: List[TimingResult] = []
        injected = 0
        for rate_index, rate in enumerate(rates):
            plan = FaultPlan.uniform(rate, seed=1000 * (rate_index + 1) + index)
            run_result, log = _simulate_adaptive(setup, compiled, plan)
            faulted.append(run_result)
            injected += log.injected()
            delta = _delta_percent(baseline.mpki, run_result.mpki)
            per_rate_deltas[rate_index].append(delta)
        worst = max(
            (_delta_percent(baseline.mpki, f.mpki) for f in faulted),
            default=0.0,
        )
        worst_deltas.append(worst)
        result.add_row(
            name, lru.mpki, baseline.mpki, armed_quiet.mpki,
            *[f.mpki for f in faulted], worst, injected,
        )

    result.add_row(
        "Average",
        arithmetic_mean(result.column("LRU MPKI")[: len(workloads)]),
        arithmetic_mean(result.column("adaptive MPKI")[: len(workloads)]),
        arithmetic_mean(result.column("armed rate 0")[: len(workloads)]),
        *[arithmetic_mean(result.column(f"rate {rate:g}")[: len(workloads)])
          for rate in rates],
        max(worst_deltas, default=0.0),
        sum(result.column("faults")[: len(workloads)]),
    )
    result.add_note(
        "Invariants held on every faulted run: simulation completed "
        "(a fault is never worse than a crash), hits + misses == "
        "accesses, and an armed injector at rate 0 was bit-identical "
        "to the fault-free baseline. Hit correctness is structural: "
        "faults only touch performance-only auxiliary state, never the "
        "real tag/data arrays."
    )
    result.add_note(
        "Mean MPKI delta vs fault-free adaptive: "
        + ", ".join(
            f"{rate:g} -> {arithmetic_mean(deltas):+.2f}%"
            for rate, deltas in zip(rates, per_rate_deltas)
        )
        + f"; worst single-workload delta {max(worst_deltas):+.2f}%."
    )
    return result


def _delta_percent(baseline: float, value: float) -> float:
    """Percentage change of ``value`` over ``baseline`` (0 when flat)."""
    if baseline == 0.0:
        return 0.0
    return 100.0 * (value - baseline) / baseline
