"""The online subsystem: a serving-shaped adaptive key-value cache.

This package lifts the paper's adaptive-replacement machinery out of
the set-indexed hardware simulator into an in-process, thread-safe,
sharded KV cache — the shape that transfers to memoization layers and
KV-block caches in serving stacks:

* :mod:`repro.online.keyspace` — stable 64-bit key fingerprints (the
  online analogue of tags), shard routing, partial-fingerprint folding.
* :mod:`repro.online.shard` — one locked shard, driven through the
  standard replacement-policy event protocol (a shard is a single
  "set" whose associativity is its entry capacity).
* :mod:`repro.online.policies` — fixed, adaptive (shadow directories +
  per-shard selector) and sampled (leader shards + global selector)
  shard policies.
* :mod:`repro.online.engine` — :class:`AdaptiveKVCache`: get/put/
  delete/get_or_compute, TTL, entry- and byte-capacity, stats, and the
  one key-to-shard routing rule (``shard_index``).
* :mod:`repro.online.contract` — the :class:`KVStore` request surface
  every layer serves (:class:`AsyncKVStore` for the asyncio front) and
  the :class:`KVLayer` base of the wrappers over one engine.
* :mod:`repro.online.persistence` — crash-safe durability: periodic
  snapshots plus a CRC-framed write-ahead log, with recovery that
  reissues byte-identical replacement decisions.
* :mod:`repro.online.liverecovery` — live recovery: the same snapshot
  + WAL chain replayed in bounded chunks interleaved with request
  service (per-shard replay cursors, honest stale/refused reads,
  dual-logged deferred writes), converging to a state byte-identical
  to stop-the-world recovery.
* :mod:`repro.online.resilience` — resilient serving: bounded retries,
  per-shard circuit breakers, stale-while-unavailable fallback, shard
  quarantine/rebuild, and health/readiness probes.

See docs/online.md for the design and its mapping to the paper.
"""
