"""Extension: a DIP-like design inside the paper's framework.

The paper's set-sampling experiment (Section 4.7, after Qureshi et
al.'s SBAR) is the direct ancestor of DIP (Qureshi et al., ISCA 2007):
set dueling between LRU and the thrash-resistant Bimodal Insertion
Policy. Because our adaptivity machinery is policy-agnostic, DIP falls
out of it: :class:`~repro.core.sbar.SbarPolicy` over (LRU, BIP) *is* a
DIP-like cache. This experiment compares it against plain LRU, plain
BIP, the paper's LRU/LFU adaptive cache, and full-shadow LRU/BIP
adaptivity, on the thrash-prone and recency-friendly halves of the
suite.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.experiments.base import (
    Cell, ExperimentResult, Setup, Sweep, policy_cells, sweep_workloads,
)

# Loop-thrashing programs (where BIP shines) + recency-friendly ones
# (where naive BIP loses and the duel must pick LRU).
DEFAULT_WORKLOADS = ["art-1", "art-2", "gcc-1", "equake", "lucas",
                     "gcc-2", "parser", "bzip2"]

POLICY_SPECS = {
    "DIP-like (sbar lru+bip)": {"policy_kind": "sbar",
                                "components": ("lru", "bip")},
    "Adaptive (lru+bip)": {"policy_kind": "adaptive",
                           "components": ("lru", "bip")},
    "Adaptive (lru+lfu)": {"policy_kind": "adaptive",
                           "components": ("lru", "lfu")},
    "BIP": {"policy_kind": "bip"},
    "LRU": {"policy_kind": "lru"},
}


def cells(setup: Setup, workloads: Optional[Sequence[str]]) -> List[Cell]:
    """One cell per workload (default :data:`DEFAULT_WORKLOADS`) and
    :data:`POLICY_SPECS` entry."""
    return policy_cells(setup, workloads or DEFAULT_WORKLOADS, POLICY_SPECS)


def render(setup: Setup, sweep: Sweep) -> ExperimentResult:
    """The set-dueling MPKI table from :func:`cells`' results."""
    workloads = sweep_workloads(sweep)
    result = ExperimentResult(
        experiment="ext-dip",
        description="DIP-style set dueling expressed in this paper's "
        "framework (MPKI, lower is better)",
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
        "DIP-like vs LRU: "
        f"{percent_reduction(averages['LRU'], averages['DIP-like (sbar lru+bip)']):+.1f}% "
        "average MPKI — set dueling over (LRU, BIP) emerges from the "
        "paper's machinery with zero new mechanism."
    )
    return result
