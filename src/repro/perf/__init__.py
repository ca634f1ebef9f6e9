"""Performance infrastructure: batch kernel, parallel sweeps, benchmarks.

``repro.perf`` is the speed layer of the reproduction:

* :mod:`repro.perf.kernel` — the columnar shadow-directory kernel:
  whole access batches simulated per set in struct-of-arrays form,
  one fused loop over a step closure per shadow component,
  byte-identical to the scalar loop in every observable decision.
  It runs whenever the cache is inside its envelope and the batch is
  large enough to amortize the setup (:data:`AUTO_MIN_BATCH`).
* :mod:`repro.perf.parallel` — the process pool
  (:class:`~repro.perf.parallel.ParallelRunner`) that
  :func:`~repro.experiments.base.run_sweeps` maps its per-workload step
  over at ``--workers N``; everything else is the serial path's, so the
  results and the checkpoint format are the same.
* :mod:`repro.perf.bench` — the ``repro-experiments perf`` benchmark:
  hot-path accesses/sec (labelled with the kernel each row measured)
  and sweep wall-clock, recorded to ``BENCH_perf.json``.

The scalar hot path lives where it always did
(:mod:`repro.cache.cache`, :mod:`repro.policies`); docs/performance.md
describes the optimizations and the decision-identity argument.
"""
