"""Shared-cache workload mixes — the paper's multi-core future work.

Section 6: "We plan on evaluating adaptive caching policies for shared
last-level caches in a multi-core environment. We believe that the
combination of memory traffic from dissimilar threads or applications
will provide even more opportunities for the adaptive mechanism."

This module builds that combined traffic: each core's trace keeps its
own (disjoint) address space — so the cores *compete* for shared-cache
capacity without sharing data — and the record streams are interleaved
in proportion to their lengths, approximating simultaneous execution.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cache.config import CacheConfig
from repro.workloads.suite import build_workload
from repro.workloads.trace import COLUMN_DTYPES, KIND_STORE, Trace

# Per-core address-space separation: above any synthetic footprint, and
# aligned so it never changes a reference's set index.
CORE_ADDRESS_STRIDE = 1 << 36


def offset_core_records(trace: Trace, core: int) -> Trace:
    """Rebase a core's memory addresses into its private address space.

    Branch PCs are left alone (each core has its own predictor in a real
    system; the timing model treats the combined branch stream as one,
    which only makes the shared baseline *harder*, not easier).
    """
    if core < 0:
        raise ValueError(f"core must be >= 0, got {core}")
    offset = np.where(trace.kinds <= KIND_STORE, core * CORE_ADDRESS_STRIDE, 0)
    return Trace(trace.name, trace.kinds, trace.addresses + offset, trace.gaps)


def interleave_traces(traces: Sequence[Trace]) -> Trace:
    """Merge per-core traces into one shared-cache reference stream.

    Records are drawn from the cores in a fixed-seed random order,
    weighted by how many records each core has left, so all cores
    finish together — a simple model of symmetric simultaneous
    execution.
    """
    if not traces:
        raise ValueError("need at least one trace")
    remaining = [len(trace) for trace in traces]
    total = sum(remaining)
    rng = np.random.default_rng(0)
    source = np.empty(total, dtype=np.int64)  # the core of each merged record
    merged = 0
    # Draw cores in bulk for speed; a draw of a core that has run dry
    # is dropped, so each core keeps its first ``remaining`` draws.
    while merged < total:
        weights = np.asarray(remaining, dtype=np.float64)
        alive = weights.sum()
        draws = rng.choice(
            len(traces), size=min(4096, total - merged), p=weights / alive,
        )
        keep = np.zeros(len(draws), dtype=bool)
        for core, left in enumerate(remaining):
            taken = np.flatnonzero(draws == core)[:left]
            keep[taken] = True
            remaining[core] -= len(taken)
        kept = draws[keep]
        source[merged:merged + len(kept)] = kept
        merged += len(kept)
    columns = {name: np.empty(total, dtype=dtype) for name, dtype in COLUMN_DTYPES.items()}
    for core, trace in enumerate(traces):
        rebased = offset_core_records(trace, core)
        slots = source == core
        for name, column in columns.items():
            column[slots] = getattr(rebased, name)
    return Trace("+".join(trace.name for trace in traces), **columns)


def build_shared_workload(
    names: Sequence[str],
    config: CacheConfig,
    accesses_per_core: int = 30_000,
) -> Trace:
    """Build and interleave the named workloads for a shared cache.

    Footprints still scale against ``config`` (the *shared* cache), so
    an N-core mix pressures the cache roughly N times harder than any
    solo run — the regime the paper expects adaptivity to enjoy.
    """
    traces = [
        build_workload(name, config, accesses=accesses_per_core,
                       seed_offset=core)
        for core, name in enumerate(names)
    ]
    return interleave_traces(traces)
