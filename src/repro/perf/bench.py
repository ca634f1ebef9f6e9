"""The ``repro-experiments perf`` benchmark: kernel + sweep throughput.

Measures the two things the performance work optimizes and records them
to ``BENCH_perf.json``:

* **hot-path throughput** — accesses/sec through
  :meth:`~repro.cache.cache.SetAssociativeCache.access` and the batched
  :meth:`~repro.cache.cache.SetAssociativeCache.access_many`, per
  policy, on a deterministic synthetic stream (60% sequential walk, 40%
  uniform jumps over 4x the cache's line capacity — a mix that misses
  enough to exercise the victim path hard);
* **sweep wall-clock** — one mini-scale policy sweep, serial and at
  each requested ``--workers`` count, through the real
  :func:`~repro.experiments.base.run_policy_sweep` path.

The recorded file also carries the machine context (CPU count, Python
version) because both numbers are meaningless without it; the CI
regression gate (``benchmarks/bench_hotpath.py --quick`` against
``benchmarks/baselines.json``) uses deliberately conservative floors
for exactly that reason.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.perf.kernel import kernel_name
from repro.utils.rng import DeterministicRNG

#: Policies timed by the hot-path benchmark: the two cheapest fixed
#: policies (pure kernel cost) and the paper's adaptive policy (kernel
#: plus shadow replays).
HOTPATH_POLICIES = ("lru", "fifo", "adaptive")

#: Default stream length; --quick divides it by 10.
HOTPATH_ACCESSES = 200_000

#: Sweep benchmark coverage: a small, phase-diverse workload subset.
SWEEP_WORKLOADS = ("lucas", "art-1", "ammp", "mcf")

#: Sweep policy specs (label -> simulate_policy kwargs).
SWEEP_SPECS = {
    "LRU": {"policy_kind": "lru"},
    "LFU": {"policy_kind": "lfu"},
    "Adaptive": {"policy_kind": "adaptive"},
}


def synthetic_stream(
    accesses: int, config: CacheConfig, seed: int = 7
) -> List[int]:
    """Deterministic byte-address stream for kernel benchmarking.

    60% of references advance a sequential cursor, 40% jump uniformly,
    over a footprint of 4x the cache's line capacity (miss ratio ~0.75
    on the default geometry, so victim selection dominates).
    """
    rng = DeterministicRNG(seed)
    lines = config.num_lines * 4
    line_bytes = config.line_bytes
    addresses = []
    base = 0
    for _ in range(accesses):
        if rng.random() < 0.6:
            base = (base + 1) % lines
        else:
            base = int(rng.random() * lines)
        addresses.append(base * line_bytes)
    return addresses


def bench_hotpath(
    accesses: int = HOTPATH_ACCESSES,
    policies: Sequence[str] = HOTPATH_POLICIES,
    size_kb: int = 64,
    ways: int = 8,
    seed: int = 7,
) -> Dict[str, Dict[str, float]]:
    """Accesses/sec per policy, per entry point.

    Returns ``{policy: {"access_per_sec": ..., "access_many_per_sec":
    ..., "miss_ratio": ...}}``; the miss ratio doubles as a correctness
    canary (both entry points must agree, and the number is pinned by
    the stream's determinism).
    """
    from repro.experiments.base import build_l2_policy

    results: Dict[str, Dict[str, float]] = {}
    for kind in policies:
        config = CacheConfig(size_bytes=size_kb * 1024, ways=ways,
                             line_bytes=64)
        addresses = synthetic_stream(accesses, config, seed=seed)

        cache = SetAssociativeCache(config, build_l2_policy(config, kind))
        access = cache.access
        start = time.perf_counter()
        for address in addresses:
            access(address)
        elapsed = time.perf_counter() - start
        per_call = accesses / elapsed

        # Steady-state measurement: one untimed access_many run on a
        # throwaway cache first, so the batch loop's code object — and,
        # for supported adaptive caches, the generated columnar kernel —
        # is compiled and specialization-warm before the clock starts.
        warm = SetAssociativeCache(config, build_l2_policy(config, kind))
        warm.access_many(addresses)

        batched = SetAssociativeCache(config, build_l2_policy(config, kind))
        kernel = kernel_name(batched, accesses)
        start = time.perf_counter()
        batched.access_many(addresses)
        batched_elapsed = time.perf_counter() - start

        # The per-call loop above always runs scalar, so on columnar
        # caches this doubles as a scalar-vs-kernel miss-count canary.
        if batched.stats.misses != cache.stats.misses:
            raise AssertionError(
                f"access/access_many diverged on {kind}: "
                f"{cache.stats.misses} vs {batched.stats.misses} misses"
            )
        results[kind] = {
            "access_per_sec": round(per_call, 1),
            "access_many_per_sec": round(accesses / batched_elapsed, 1),
            "miss_ratio": round(
                cache.stats.misses / cache.stats.accesses, 6
            ),
            "accesses": accesses,
            "kernel": kernel,
        }
    return results


def bench_sweep(
    workers_counts: Sequence[int] = (1, 4),
    accesses: int = 4000,
    workloads: Sequence[str] = SWEEP_WORKLOADS,
) -> Dict[str, object]:
    """Wall-clock of one mini policy sweep, serial and parallel.

    Each entry re-runs the same deterministic sweep (fresh
    :class:`~repro.experiments.base.WorkloadCache`, no disk trace
    cache, no checkpoint) so the wall-clocks are comparable; the
    results themselves are asserted identical across worker counts.
    """
    from repro.experiments.base import (
        WorkloadCache,
        make_setup,
        run_policy_sweep,
    )
    from repro.experiments.checkpoint import timing_to_dict

    timings: Dict[str, float] = {}
    reference = None
    for workers in workers_counts:
        cache = WorkloadCache(make_setup("mini", accesses=accesses))
        start = time.perf_counter()
        sweep = run_policy_sweep(
            cache, list(workloads), SWEEP_SPECS, workers=workers
        )
        timings[str(workers)] = round(time.perf_counter() - start, 3)
        serialized = {
            name: {label: timing_to_dict(cell)
                   for label, cell in row.items()}
            for name, row in sweep.items()
        }
        if reference is None:
            reference = serialized
        elif serialized != reference:
            raise AssertionError(
                f"sweep results at workers={workers} diverged from serial"
            )
    return {
        "wall_clock_sec_by_workers": timings,
        "workloads": list(workloads),
        "policies": list(SWEEP_SPECS),
        "accesses": accesses,
        "results_identical_across_workers": True,
    }


def run_perf(
    path: str = "BENCH_perf.json",
    quick: bool = False,
    workers_counts: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Run both benchmarks and write the report JSON to ``path``.

    Args:
        path: output file; also returned as a dict.
        quick: CI mode — 10x shorter hot-path stream, smaller sweep.
        workers_counts: sweep worker counts to time (default serial
            plus 4, the acceptance configuration).
    """
    if workers_counts is None:
        workers_counts = (1, 4)
    hot_accesses = HOTPATH_ACCESSES // 10 if quick else HOTPATH_ACCESSES
    sweep_accesses = 2000 if quick else 4000
    report: Dict[str, object] = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "quick": quick,
        "hotpath": bench_hotpath(accesses=hot_accesses),
        "sweep": bench_sweep(
            workers_counts=workers_counts, accesses=sweep_accesses
        ),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return report


def render_perf(report: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_perf` report."""
    lines = [
        f"machine: {report['machine']['cpu_count']} CPU(s), "
        f"Python {report['machine']['python']}",
        "hot path (accesses/sec):",
    ]
    for kind, row in sorted(report["hotpath"].items()):
        lines.append(
            f"  {kind:10s} access {row['access_per_sec']:>12,.0f}   "
            f"access_many {row['access_many_per_sec']:>12,.0f}   "
            f"miss ratio {row['miss_ratio']:.3f}   "
            f"kernel {row.get('kernel', 'scalar')}"
        )
    sweep = report["sweep"]
    lines.append(
        f"sweep ({len(sweep['workloads'])} workloads x "
        f"{len(sweep['policies'])} policies, "
        f"{sweep['accesses']} accesses):"
    )
    for workers, seconds in sorted(
        sweep["wall_clock_sec_by_workers"].items(), key=lambda kv: int(kv[0])
    ):
        lines.append(f"  workers={workers:<3s} {seconds:8.3f}s")
    lines.append(
        "results identical across worker counts: "
        f"{sweep['results_identical_across_workers']}"
    )
    return "\n".join(lines)
