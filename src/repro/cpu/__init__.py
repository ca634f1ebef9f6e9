"""Processor timing model.

The paper evaluates with MASE (SimpleScalar) cycle-level simulation of
the out-of-order processor in Table 1. We substitute an event-driven
timing model that reproduces the mechanisms coupling L2 replacement to
performance — ROB-limited run-ahead past load misses (memory-level
parallelism), a finite store buffer that stalls the core when write
traffic backs up, branch misprediction penalties, and the bus/memory
latency — while abstracting the per-instruction pipeline (see DESIGN.md
Section 2 for the substitution rationale).

The model runs in two phases:

* :func:`~repro.cpu.timing.compile_workload` walks a trace once
  through the L1 data cache and the branch predictors. Everything it
  computes is *independent of the L2 replacement policy*, so the
  expensive part is done once per workload.
* :func:`~repro.cpu.timing.simulate` replays the compiled L2-visible
  stream against one L2 cache configuration, producing cycles and
  CPI. Sweeping policies or tag widths only repeats this cheap phase.
"""
