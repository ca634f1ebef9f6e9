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
  delete/get_or_compute, TTL, entry- and byte-capacity, stats.
* :mod:`repro.online.bound` — the Appendix's 2x miss bound checked on
  the engine (shards standing in for sets).
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

from repro.online.bound import check_online_miss_bound
from repro.online.engine import MODES, AdaptiveKVCache, default_sizeof
from repro.online.liverecovery import (
    LiveRecoveringKVCache,
    LiveRecoveryStats,
    RecoveryInProgress,
)
from repro.online.persistence import (
    PersistentKVCache,
    SnapshotCorruptError,
    apply_wal_record,
    iter_wal,
    kv_stats_digest,
    load_snapshot_engine,
    read_snapshot,
    recover,
    write_snapshot,
)
from repro.online.resilience import (
    BREAKER_STATES,
    CircuitBreaker,
    LoaderUnavailable,
    ResilientKVCache,
    RetryPolicy,
)
from repro.online.keyspace import (
    FINGERPRINT_BITS,
    key_fingerprint,
    partial_fingerprint_transform,
    shard_of,
)
from repro.online.policies import (
    DuelingResidentPolicy,
    LockedVoteSink,
    build_shard_policy,
)
from repro.online.shard import CacheShard, ShardView
from repro.online.stats import KVCacheStats

__all__ = [
    "AdaptiveKVCache",
    "MODES",
    "default_sizeof",
    "CacheShard",
    "ShardView",
    "KVCacheStats",
    "DuelingResidentPolicy",
    "LockedVoteSink",
    "build_shard_policy",
    "FINGERPRINT_BITS",
    "key_fingerprint",
    "shard_of",
    "partial_fingerprint_transform",
    "check_online_miss_bound",
    "PersistentKVCache",
    "SnapshotCorruptError",
    "apply_wal_record",
    "iter_wal",
    "kv_stats_digest",
    "load_snapshot_engine",
    "read_snapshot",
    "recover",
    "write_snapshot",
    "LiveRecoveringKVCache",
    "LiveRecoveryStats",
    "RecoveryInProgress",
    "BREAKER_STATES",
    "CircuitBreaker",
    "LoaderUnavailable",
    "ResilientKVCache",
    "RetryPolicy",
]
