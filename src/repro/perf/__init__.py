"""Performance infrastructure: batch kernel, parallel sweeps, benchmarks.

``repro.perf`` is the speed layer of the reproduction:

* :mod:`repro.perf.kernel` — the columnar shadow-directory kernel:
  whole access batches simulated per set in struct-of-arrays form,
  with a generated fast path per (policyA, policyB) duel pair,
  byte-identical to the scalar loop in every observable decision.
  It runs whenever the cache is inside its envelope and the batch is
  large enough to amortize the setup (:data:`AUTO_MIN_BATCH`).
* :mod:`repro.perf.parallel` — a process-parallel sweep executor
  (:class:`~repro.perf.parallel.ParallelRunner`) layered on the same
  crash-isolated cells as the serial runner, producing byte-identical
  results in deterministic order and sharing the serial path's
  checkpoint/resume format.
* :mod:`repro.perf.bench` — the ``repro-experiments perf`` benchmark:
  hot-path accesses/sec (labelled with the kernel each row measured)
  and sweep wall-clock, recorded to ``BENCH_perf.json``.

The scalar hot path lives where it always did
(:mod:`repro.cache.cache`, :mod:`repro.policies`); docs/performance.md
describes the optimizations and the decision-identity argument.
"""

from repro.perf.bench import run_perf
from repro.perf.kernel import (
    AUTO_MIN_BATCH,
    columnar_access_many,
    columnar_hit_stream,
    kernel_name,
    kernel_plan,
)
from repro.perf.parallel import (
    ParallelRunner,
    get_default_workers,
    parallel_policy_sweep,
    set_default_workers,
)

__all__ = [
    "AUTO_MIN_BATCH",
    "ParallelRunner",
    "columnar_access_many",
    "columnar_hit_stream",
    "get_default_workers",
    "kernel_name",
    "kernel_plan",
    "parallel_policy_sweep",
    "run_perf",
    "set_default_workers",
]
