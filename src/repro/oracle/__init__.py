"""The differential-testing oracle (independent correctness machinery).

Every engine in this repository — the set-indexed hardware simulator
(:mod:`repro.cache` / :mod:`repro.core`) and the sharded online engine
(:mod:`repro.online`) — is tested here against *independent* executable
specifications written for obviousness, not speed:

* :mod:`repro.oracle.spec` — textbook reference models of every
  registered replacement policy and of the paper's Algorithm 1;
* :mod:`repro.oracle.placement_spec` — reference models of every tier
  placement strategy and a reference tiered key-value walker;
* :mod:`repro.oracle.stack` — a single-pass Mattson stack-distance
  engine yielding LRU hit counts for all capacities at once;
* :mod:`repro.oracle.harness` — the differential harness that drives a
  real engine and its spec from one event stream and reports the first
  divergent decision, plus cross-engine equivalence checks;
* :mod:`repro.oracle.streams` — seeded random event-stream generators
  for differential campaigns;
* :mod:`repro.oracle.columnar` — the scalar-vs-columnar lane proving
  the batch kernel's decision-identity contract over every duel pair;
* :mod:`repro.oracle.golden` — pinned golden-trace digests for the
  named suite (``repro-experiments golden``, ``--regen`` to rewrite).

See ``docs/testing.md`` for the workflow.
"""
