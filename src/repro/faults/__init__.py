"""Fault injection into the adaptive cache's auxiliary state.

The paper's overhead analysis (Section 3.2) rests on a structural
property: everything the adaptive machinery adds — parallel (shadow)
tag arrays, per-set miss-history buffers, SBAR's selector counter — is
*performance-only* state. Corrupting it can shift which component
policy the cache imitates, costing extra misses, but can never make the
cache return wrong data, and partial tags already tolerate aliasing by
design (Section 3.1). This package turns that claim into something the
repository can exercise:

* :class:`~repro.faults.plan.FaultPlan` / ``FaultSpec`` describe an
  injection campaign (sites, rates, access windows) as inert data.
* :class:`~repro.faults.injector.FaultInjector` arms a plan on an
  adaptive or SBAR policy and corrupts state as the simulation runs,
  counting everything it does in a ``FaultLog``.
* ``repro-experiments ext-faults`` sweeps fault rates and reports MPKI
  degradation, asserting the graceful-degradation invariants.
* :mod:`repro.faults.online` extends the fault model to the serving
  layer's backend: :class:`~repro.faults.online.FlakyLoader`
  (failing/bursty/slow loaders) and its awaiting twin. Crashes, torn
  WAL tails, quarantines and node faults are rules of the invariant
  state machine in ``tests/invariants``, which checks every serving
  composition against one reference model.

When no plan is armed the hooks cost one pointer comparison per access.
See docs/robustness.md for the fault model.
"""
