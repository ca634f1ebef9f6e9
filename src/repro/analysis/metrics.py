"""Aggregate metrics, following the paper's averaging conventions.

The paper deliberately reports *linear* cost metrics (MPKI, CPI) "so
that they can be meaningfully averaged with a simple arithmetic
average. For instance, our arithmetic mean of CPI rates is equivalent
to the harmonic mean of IPC, and provides a metric proportional to
overall execution time." We follow the same convention.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("cannot average an empty sequence")
    return sum(values) / len(values)


def percent_reduction(baseline: float, improved: float) -> float:
    """How much lower ``improved`` is than ``baseline``, in percent.

    Positive numbers mean the improved value is better (lower); this is
    the paper's "reduces the average MPKI rate by 19%" direction.
    """
    if baseline == 0:
        raise ValueError("baseline must be non-zero")
    return 100.0 * (baseline - improved) / baseline


def summarize_policy_metric(
    per_workload: Mapping[str, Mapping[str, float]],
    baseline: str,
    candidate: str,
) -> Dict[str, float]:
    """Summarize a per-workload {workload: {policy: metric}} table.

    Returns the baseline and candidate averages, the average reduction
    (computed on the averages, as the paper does), and the worst
    per-workload degradation of the candidate in percent.
    """
    base_values = [row[baseline] for row in per_workload.values()]
    cand_values = [row[candidate] for row in per_workload.values()]
    worst_degradation = 0.0
    for row in per_workload.values():
        if row[baseline] > 0:
            change = percent_reduction(row[baseline], row[candidate])
            worst_degradation = min(worst_degradation, change)
    return {
        f"avg_{baseline}": arithmetic_mean(base_values),
        f"avg_{candidate}": arithmetic_mean(cand_values),
        "avg_reduction_percent": percent_reduction(
            arithmetic_mean(base_values), arithmetic_mean(cand_values)
        ),
        "worst_degradation_percent": -worst_degradation,
    }
