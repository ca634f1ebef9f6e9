"""Multi-tier key-value serving with adaptive placement.

The paper adapts the *eviction policy* of each cache set; this
subsystem adapts the orthogonal dimension — *where a value lands*
across a multi-tier topology — using the same Algorithm 1 selector
machinery (:mod:`repro.core.selector`).

* :mod:`repro.tiers.placement` — the strategy family: LCE, LCD,
  probabilistic LCD, and the registry (:func:`make_placement`).
* :mod:`repro.tiers.adaptive` — :class:`AdaptivePlacement`, a
  per-keyspace-partition selector dueling fixed strategies on shadow
  topologies with decisive-miss (backing-fetch) feedback.
* :mod:`repro.tiers.kv` — the tier walk: :class:`KVTier` /
  :class:`TieredKVCache` over any duck-typed KV store, plus the
  canonical near/far (:func:`tiered_front`) and client-local→cluster
  (:func:`client_local_topology`) topologies.

See docs/tiers.md for the model and the adaptive-placement design.
"""
