"""Ablations over the adaptive cache's design choices.

DESIGN.md Section 5 calls out the mechanism parameters the paper fixes
by fiat; this experiment varies each in isolation around the default
configuration (LRU/LFU, bit-vector history with m = associativity, LRU
fallback, low-order partial tags):

* miss-history kind — bit-vector (paper's choice) vs unbounded counters
  (the provable variant) vs saturating counters;
* history window m — the paper sets m to the associativity "or a small
  multiple of it";
* aliasing-fallback victim — recency order (Section 3.3's shortcut) vs
  random;
* partial-tag function — low-order bits (paper default) vs XOR fold;
* SBAR leader-set count.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.metrics import arithmetic_mean
from repro.core.history import make_history_factory
from repro.core.multi import make_adaptive
from repro.core.partial import PartialTagScheme
from repro.cpu.timing import compile_workload, simulate
from repro.cache.cache import SetAssociativeCache
from repro.experiments.base import (
    ExperimentResult,
    Setup,
    WorkloadCache,
    build_l2_policy,
)

DEFAULT_WORKLOADS = ["lucas", "gcc-2", "art-1", "tiff2rgba", "ammp",
                     "mcf", "unepic"]


def run(setup: Setup, workloads: Optional[Sequence[str]]) -> ExperimentResult:
    """Sweep each design choice, one at a time."""
    cache_ws = WorkloadCache(setup)
    workloads = list(workloads or DEFAULT_WORKLOADS)
    num_sets, ways = setup.l2.num_sets, setup.l2.ways

    variants = []

    def add(group, label, factory):
        variants.append((group, label, factory))

    add("baseline", "paper default",
        lambda: make_adaptive(num_sets, ways))

    for kind in ("counter", "saturating"):
        add("history kind", kind,
            lambda kind=kind: make_adaptive(
                num_sets, ways,
                history_factory=make_history_factory(kind),
            ))
    for window in (ways // 2, 2 * ways, 4 * ways):
        add("history window", f"m={window}",
            lambda window=window: make_adaptive(
                num_sets, ways,
                history_factory=make_history_factory("bitvector",
                                                     window=window),
            ))
    add("fallback", "random",
        lambda: make_adaptive(num_sets, ways, fallback="random"))
    for method in ("low", "xor"):
        add("partial tags (8-bit)", method,
            lambda method=method: make_adaptive(
                num_sets, ways,
                tag_transform=PartialTagScheme(8, method),
            ))
    for leaders in (4, 16, min(64, num_sets)):
        add("sbar leaders", f"{leaders} leaders",
            lambda leaders=leaders: build_l2_policy(
                setup.l2, "sbar", ("lru", "lfu"), num_leaders=leaders
            ))

    result = ExperimentResult(
        experiment="ablations",
        description="Design-choice ablations around the default "
        "adaptive configuration (averages over a primary-set slice)",
        headers=["group", "variant", "avg MPKI", "avg CPI"],
    )
    # Workload-major: one compiled workload alive at a time.
    runs = [[] for _ in variants]
    for name in workloads:
        compiled = compile_workload(cache_ws.trace(name), setup.processor)
        for variant_runs, (_group, _label, factory) in zip(runs, variants):
            cache = SetAssociativeCache(setup.l2, factory())
            variant_runs.append(simulate(compiled, cache, setup.processor))
    baseline_mpki = None
    for (group, label, _factory), variant_runs in zip(variants, runs):
        mpki = arithmetic_mean([r.mpki for r in variant_runs])
        cpi = arithmetic_mean([r.cpi for r in variant_runs])
        if group == "baseline":
            baseline_mpki = mpki
        result.add_row(group, label, mpki, cpi)
    result.add_note(
        "The paper's defaults are deliberately un-tuned; robustness "
        "across these variants (MPKI near the baseline "
        f"{baseline_mpki:.2f}) is the claim being checked."
    )
    return result
