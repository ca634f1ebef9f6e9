"""Open-loop serving: asyncio front-end, load shedding, tail-latency SLOs.

The closed-loop benchmarks (``BENCH_perf.json``) measure how fast the
cache goes when the driver waits for every answer. Production serving
is *open-loop*: arrivals are independent of service rate, and the
number that matters is tail latency under overload and partial failure.
This package provides that measurement:

* :mod:`repro.serve.vloop` — a deterministic virtual-time asyncio event
  loop, so minutes of simulated traffic replay in milliseconds and a
  fixed seed reproduces byte-identical reports;
* :mod:`repro.serve.sketch` — a streaming log-bucketed percentile
  sketch with a bounded relative error, plus an exact-quantile
  reference;
* :mod:`repro.serve.front` — the asyncio serving front: bounded
  in-flight admission (load shedding), per-request deadlines, and the
  async resilient ladder of
  :meth:`~repro.online.resilience.ResilientKVCache.aget_or_compute`;
* :mod:`repro.serve.harness` — the five-regime SLO harness (steady,
  overload, degraded, live recovery under traffic, tiered front)
  behind ``repro-experiments ext-serve`` and the committed
  ``BENCH_serve.json``.

Request streams come from the load-generator layer in
:mod:`repro.workloads.keystreams` (Poisson/MMPP arrivals, Zipf
popularity, YCSB mixes, beta client skew, trace-driven replay).
"""
