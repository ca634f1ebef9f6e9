"""Live recovery: serve traffic while the write-ahead log replays.

:func:`~repro.online.persistence.recover` is stop-the-world — it
materializes the snapshot and replays the whole WAL before a single
request is served. For a cache holding workload-shaped selector and
history state that stall is exactly the wrong trade: the state exists
to keep serving well. :class:`LiveRecoveringKVCache` replays the same
snapshot + WAL chain **incrementally**, in bounded chunks interleaved
with request service, and converges to a state byte-identical to
stop-the-world recovery.

The correctness argument rests on shard independence:

* In ``"adaptive"`` and fixed modes every shard is a self-contained
  replica of the paper's machinery — no cross-shard state. Replay
  therefore proceeds **shard by shard** (per-shard replay cursors over
  a one-pass positional index of the WAL chain), preserving each
  shard's record order exactly while permuting the commuting
  cross-shard order. A shard whose cursor is exhausted is *ready*: its
  state equals what stop-the-world recovery would produce, so it
  serves (and logs) traffic normally while later shards still replay.
  Batched ``gmany`` records are split per shard — the engine's
  ``get_many`` groups keys by shard preserving per-shard key order, so
  applying a record's shard-local key subset raises exactly the events
  the full batch would.
* In ``"sampled"`` mode leader shards vote into one
  :class:`~repro.core.selector.GlobalSelector`, and live traffic on an
  early-promoted leader would inject votes that reorder against
  not-yet-replayed records. Replay then runs in global log order and
  no shard serves normally until the chain is drained — reads degrade
  to the honest recovering path below, writes defer; the engine's
  decision stream stays identical to the reference.

While a shard is still replaying:

* **Reads** are served honestly from what is actually known — a
  pending (acked but deferred) write, else a non-destructive
  ``peek_stale`` of the partially replayed shard — and otherwise
  refused with :class:`RecoveryInProgress`. These paths raise no
  policy events, are never logged, and count into wrapper-level
  :class:`LiveRecoveryStats` — engine hit/miss counters never inflate
  and the engine state stays byte-identical to the reference.
* **Writes** are dual-logged: the record is appended to the newest WAL
  (after its torn tail was truncated at open) *before* the op is
  acknowledged, then queued per shard and applied the moment the
  shard's cursor drains. A second crash mid-recovery recovers by
  replaying the original intact prefix followed by the accepted live
  ops — the reference order — so acked writes survive.

Once every cursor drains and all pending writes are applied the
wrapper *is* a :class:`~repro.online.persistence.PersistentKVCache`
(it subclasses it): automatic snapshot rotation re-arms and the
serving API falls through to the plain logged paths.

TTL caveat: replay applies records at recovery time, as any recovery
(including stop-the-world at a later wall clock) does; with per-entry
TTLs the identity guarantee holds under a frozen clock — drive the
engine with a virtual ``clock`` if expiry during the replay window
matters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple

from repro.online.keyspace import key_fingerprint, shard_of
from repro.online.persistence import (
    PersistentKVCache,
    apply_wal_record,
    iter_wal,
    load_snapshot_engine,
    read_record,
)

#: Pending-view marker for a deferred delete.
_TOMBSTONE = object()


class RecoveryInProgress(RuntimeError):
    """Read refused: the key's shard has not finished WAL replay.

    Raised instead of serving a value the replayed prefix cannot yet
    vouch for. Callers (the resilient ladder, the serving front) treat
    it as an honest unavailability, never as a miss.
    """


@dataclass
class LiveRecoveryStats:
    """Wrapper-level counters for one live recovery.

    Kept outside the engine on purpose: engine counters are part of
    the persisted ``state_dict``, so recovery bookkeeping must not
    touch them or the byte-identity guarantee breaks.
    """

    #: Replay work items indexed from the WAL chain (a ``gmany`` record
    #: counts once per shard it touches in per-shard order).
    total_records: int = 0
    #: Work items applied so far.
    applied_records: int = 0
    #: Writes accepted (logged durable) but queued for a replaying shard.
    deferred_writes: int = 0
    #: Reads answered from pending writes or a stale peek of a
    #: partially replayed shard.
    stale_serves: int = 0
    #: Reads refused because nothing trustworthy was available.
    refused_reads: int = 0


class LiveRecoveringKVCache(PersistentKVCache):
    """A :class:`PersistentKVCache` that recovers while serving.

    Construct it on a persistence directory (where stop-the-world
    :func:`~repro.online.persistence.recover` would run), then call
    :meth:`step` on whatever cadence the serving loop can afford; each
    call replays at most ``chunk_ops`` WAL records. Probe readiness
    with :meth:`shard_serving` / :meth:`serving_fraction` /
    :meth:`replay_progress`; :meth:`finish` drains synchronously.

    Args:
        directory: persistence directory of the crashed run.
        chunk_ops: default replay records per :meth:`step`.
        snapshot_every: automatic-snapshot cadence once recovery
            completes (rotation is held off during replay — a snapshot
            of a half-replayed engine would orphan the unreplayed
            suffix).
        wal_flush_ops: WAL flush cadence; 1 makes every accepted write
            durable before it is acknowledged.
        sizeof / history_factory / clock: engine overrides, as in
            :func:`~repro.online.persistence.recover`.
    """

    def __init__(
        self,
        directory: str,
        chunk_ops: int = 256,
        snapshot_every: Optional[int] = 10_000,
        wal_flush_ops: int = 64,
        sizeof: Optional[Callable] = None,
        history_factory=None,
        clock: Callable[[], float] = None,
    ):
        if chunk_ops <= 0:
            raise ValueError(f"chunk_ops must be positive, got {chunk_ops}")
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        directory = os.fspath(directory)
        cache, wal_paths, latest = load_snapshot_engine(
            directory,
            sizeof=sizeof,
            history_factory=history_factory,
            clock=clock,
        )
        self.chunk_ops = chunk_ops
        self._target_snapshot_every = snapshot_every
        self._recovering = True
        # Sampled mode couples leader shards through the global
        # selector: replay must keep global log order and no shard may
        # serve (and vote) early.
        self._global_order = cache.mode == "sampled"
        num_shards = cache.num_shards

        # One streaming pass over the WAL chain builds a positional
        # index — (WAL position in the chain, start offset, shard) per
        # work item, ints only, never the decoded records — and the
        # newest WAL's intact length. Records are re-read lazily during
        # replay.
        items: List[Tuple[int, int, Optional[int]]] = []
        per_shard: List[List[Tuple[int, int, Optional[int]]]] = [
            [] for _ in range(num_shards)
        ]
        for wal, path in enumerate(wal_paths):
            start = 0
            for record, end in iter_wal(path):
                if self._global_order:
                    items.append((wal, start, None))
                else:
                    for index in _record_shards(record, num_shards):
                        per_shard[index].append((wal, start, index))
                start = end
        if not self._global_order:
            # Shard-major order: shard 0 drains (and starts serving)
            # first, then shard 1, ... — progressive readiness.
            for queue in per_shard:
                items.extend(queue)
        self._items = items
        self._wal_paths = wal_paths
        self._cursor = 0
        self._shard_remaining = [len(queue) for queue in per_shard]
        self._serving = [False] * num_shards
        self._pending_ops: List[List[tuple]] = [[] for _ in range(num_shards)]
        # Sampled mode promotes all shards at once, and deferred ops
        # must then apply in global acceptance order — per-shard
        # grouping would reorder leader votes into the global selector.
        self._pending_global: List[tuple] = []
        self._pending_view: List[dict] = [{} for _ in range(num_shards)]
        self._readers: Dict[int, BinaryIO] = {}
        self.recovery = LiveRecoveryStats(total_records=len(items))

        # The superclass truncates the newest WAL's torn tail and
        # positions the append handle at the intact end: accepted live
        # ops dual-log right after the prefix replay reads from.
        super().__init__(
            cache,
            directory,
            snapshot_every=None,
            wal_flush_ops=wal_flush_ops,
            _generation=latest,
            _wal_offset=start,
        )
        with self._lock:
            self._promote_locked()

    # ------------------------------------------------------------------
    # Replay control and readiness probes
    # ------------------------------------------------------------------

    @property
    def recovering(self) -> bool:
        """Whether WAL replay is still in progress."""
        return self._recovering

    def shard_serving(self, index: int) -> bool:
        """Whether ``index``'s shard serves normally (replay drained)."""
        if not self._recovering:
            return True
        return self._serving[index]

    def key_serving(self, key) -> bool:
        """Whether ``key``'s shard serves normally (replay drained).

        While this is False, an access for ``key`` takes the honest
        recovering path — stale-marked or refused, and *not logged*.
        A caller that needs every access applied and logged (e.g. a
        resumed deterministic stream) should :meth:`step` until this
        turns True before issuing the access.
        """
        return self._replaying_shard(key) is None

    def serving_fraction(self) -> float:
        """Fraction of shards serving normally, 0.0..1.0."""
        if not self._recovering:
            return 1.0
        return sum(self._serving) / len(self._serving)

    def pending_writes(self) -> int:
        """Accepted writes still queued for replaying shards."""
        with self._lock:
            return self._pending_count_locked()

    def _pending_count_locked(self) -> int:
        return (len(self._pending_global)
                + sum(len(queue) for queue in self._pending_ops))

    def replay_progress(self) -> dict:
        """Snapshot of the recovery's progress and honesty counters."""
        with self._lock:
            return {
                "recovering": self._recovering,
                "total_records": self.recovery.total_records,
                "applied_records": self.recovery.applied_records,
                "num_shards": self.cache.num_shards,
                "serving_shards": (
                    self.cache.num_shards
                    if not self._recovering
                    else sum(self._serving)
                ),
                "pending_writes": self._pending_count_locked(),
                "deferred_writes": self.recovery.deferred_writes,
                "stale_serves": self.recovery.stale_serves,
                "refused_reads": self.recovery.refused_reads,
            }

    def step(self, max_ops: Optional[int] = None) -> int:
        """Replay up to ``max_ops`` records (default ``chunk_ops``).

        Returns the number applied; 0 once recovery is complete.
        Newly drained shards have their pending writes applied and
        start serving before the call returns.
        """
        with self._lock:
            if not self._recovering:
                return 0
            budget = self.chunk_ops if max_ops is None else max_ops
            applied = 0
            while applied < budget and self._cursor < len(self._items):
                wal, start, shard = self._items[self._cursor]
                record = self._read_record_at(wal, start)
                self._apply_item_locked(record, shard)
                if shard is not None:
                    self._shard_remaining[shard] -= 1
                self._cursor += 1
                applied += 1
            self.recovery.applied_records += applied
            self._promote_locked()
            return applied

    def finish(self) -> None:
        """Drain the remaining replay synchronously."""
        while self._recovering:
            self.step()

    def close(self) -> None:
        """Close replay readers, flush the WAL, release handles."""
        with self._lock:
            self._close_readers_locked()
        super().close()

    # ------------------------------------------------------------------
    # Serving API: a readiness gate over the plain logged paths
    # ------------------------------------------------------------------
    #
    # Each method holds the lock only for its gate (and, on a replaying
    # shard, the honest recovering action). Once the gate finds the
    # shard serving it releases the lock and delegates to the
    # superclass's logged op; once recovery is over the gate is skipped
    # without taking the lock. That is safe because readiness only ever
    # turns on: ``_serving[i]`` goes False -> True and ``_recovering``
    # True -> False, each exactly once, so a shard seen serving is
    # still serving — with its deferred writes applied — when the
    # logged op runs.

    def get(self, key, default=None):
        """Logged get; honest recovering read on a replaying shard."""
        if self._recovering:
            with self._lock:
                index = self._replaying_shard(key)
                if index is not None:
                    return self._recovering_get_locked(index, key, default)
        return super().get(key, default)

    def get_many(self, keys, default=None) -> list:
        """Logged batched get; splits per key while recovering."""
        keys = list(keys)
        answered = {}
        if self._recovering:
            with self._lock:
                for position, key in enumerate(keys):
                    index = self._replaying_shard(key)
                    if index is not None:
                        answered[position] = self._recovering_get_locked(
                            index, key, default
                        )
        if not answered:
            return super().get_many(keys, default)
        get = super().get
        return [
            answered[position] if position in answered else get(key, default)
            for position, key in enumerate(keys)
        ]

    def put(self, key, value, ttl=None, size=None) -> None:
        """Logged put; dual-logged and deferred on a replaying shard."""
        if self._recovering:
            with self._lock:
                index = self._replaying_shard(key)
                if index is not None:
                    self._defer_locked(index, ("put", key, value, ttl, size),
                                       key, value)
                    return
        super().put(key, value, ttl=ttl, size=size)

    def get_or_compute(self, key, compute, ttl=None):
        """Logged get-or-compute; never computes into a replaying shard.

        On a replaying shard this serves a pending write or a stale
        peek, else raises :class:`RecoveryInProgress` — running the
        loader would fill a shard whose replay has not reached the
        fill's position, breaking identity with the reference.
        """
        if self._recovering:
            with self._lock:
                index = self._replaying_shard(key)
                if index is not None:
                    return self._recovering_read_locked(index, key)
        return super().get_or_compute(key, compute, ttl=ttl)

    def delete(self, key) -> bool:
        """Logged delete; deferred (returns False) on a replaying shard."""
        if self._recovering:
            with self._lock:
                index = self._replaying_shard(key)
                if index is not None:
                    self._defer_locked(index, ("del", key), key, _TOMBSTONE)
                    # Residency at apply time is unknowable mid-replay.
                    return False
        return super().delete(key)

    def recovering_read(self, key):
        """Value for ``key`` by the recovering rules, however degraded.

        The resilient ladder's entry point for keys on replaying
        shards: pending write, else stale peek, else
        :class:`RecoveryInProgress`. Raises no policy events and logs
        nothing.
        """
        with self._lock:
            index = self._shard_index(key)
            return self._recovering_read_locked(index, key)

    def __contains__(self, key) -> bool:
        """Residency probe; consults pending writes while recovering."""
        if self._recovering:
            with self._lock:
                index = self._shard_index(key)
                if not self._serving[index]:
                    view = self._pending_view[index]
                    if key in view:
                        return view[key] is not _TOMBSTONE
        return key in self.cache

    # ------------------------------------------------------------------
    # Internals (caller holds the wrapper lock)
    # ------------------------------------------------------------------

    def _shard_index(self, key) -> int:
        return shard_of(key_fingerprint(key), self.cache.num_shards)

    def _replaying_shard(self, key) -> Optional[int]:
        """The gate: ``key``'s shard index if it is still replaying,
        else None. A None answer holds without the lock: readiness
        only turns on."""
        if not self._recovering:
            return None
        index = self._shard_index(key)
        return None if self._serving[index] else index

    def _defer_locked(self, index: int, op: tuple, key, view) -> None:
        """Dual-log a write on a replaying shard and queue it."""
        self._log(op)
        if self._global_order:
            self._pending_global.append(op)
        else:
            self._pending_ops[index].append(op)
        self._pending_view[index][key] = view
        self.recovery.deferred_writes += 1

    def _recovering_get_locked(self, index: int, key, default):
        view = self._pending_view[index]
        if key in view:
            value = view[key]
            self.recovery.stale_serves += 1
            return default if value is _TOMBSTONE else value
        found, value = self.cache.shards[index].peek_stale(key)
        if found:
            self.recovery.stale_serves += 1
            return value
        self.recovery.refused_reads += 1
        return default

    def _recovering_read_locked(self, index: int, key):
        view = self._pending_view[index]
        if key in view:
            value = view[key]
            if value is not _TOMBSTONE:
                self.recovery.stale_serves += 1
                return value
        else:
            found, value = self.cache.shards[index].peek_stale(key)
            if found:
                self.recovery.stale_serves += 1
                return value
        self.recovery.refused_reads += 1
        raise RecoveryInProgress(
            f"shard {index} is still replaying its WAL prefix"
        )

    def _apply_item_locked(
        self, record: tuple, shard: Optional[int]
    ) -> None:
        if shard is not None and record[0] == "gmany":
            # Per-shard replay of a batched get: apply only this
            # shard's key subset — the engine groups by shard anyway,
            # so the shard sees exactly the events of the full batch.
            num_shards = self.cache.num_shards
            self.cache.get_many(
                [
                    key
                    for key in record[1]
                    if shard_of(key_fingerprint(key), num_shards) == shard
                ]
            )
        else:
            apply_wal_record(self.cache, record)

    def _promote_locked(self) -> None:
        done = self._cursor >= len(self._items)
        if self._global_order:
            if not done:
                return
            # All shards promote together; deferred ops apply in global
            # acceptance order (= their WAL order), keeping the leader
            # vote sequence identical to a post-crash replay.
            for op in self._pending_global:
                apply_wal_record(self.cache, op)
            self._pending_global = []
            for index in range(self.cache.num_shards):
                self._pending_view[index] = {}
                self._serving[index] = True
            self._complete_locked()
            return
        for index in range(self.cache.num_shards):
            if self._serving[index] or self._shard_remaining[index] != 0:
                continue
            # Apply the shard's acked-but-deferred writes in acceptance
            # order; they were logged at accept time, so a later crash
            # replays them in exactly this position.
            for op in self._pending_ops[index]:
                apply_wal_record(self.cache, op)
            self._pending_ops[index] = []
            self._pending_view[index] = {}
            self._serving[index] = True
        if done and all(self._serving):
            self._complete_locked()

    def _complete_locked(self) -> None:
        self._recovering = False
        self._items = []
        self._close_readers_locked()
        # Re-arm automatic rotation; the accumulated op count means the
        # next logged operation compacts the recovered chain into a
        # fresh snapshot generation.
        self.snapshot_every = self._target_snapshot_every

    def _close_readers_locked(self) -> None:
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()

    def _read_record_at(self, wal: int, start: int) -> tuple:
        reader = self._readers.get(wal)
        if reader is None:
            reader = self._readers[wal] = open(self._wal_paths[wal], "rb")
        reader.seek(start)
        frame = read_record(reader)
        if frame is None:
            raise RuntimeError(
                f"WAL record at {self._wal_paths[wal]} offset {start} "
                "changed underneath live recovery"
            )
        return frame[0]


def _record_shards(record: tuple, num_shards: int) -> List[int]:
    """Shards a WAL record raises events on, in first-touch order."""
    kind = record[0]
    if kind == "gmany":
        seen: List[int] = []
        for key in record[1]:
            index = shard_of(key_fingerprint(key), num_shards)
            if index not in seen:
                seen.append(index)
        return seen
    if kind in ("get", "del", "put", "goc_fill"):
        return [shard_of(key_fingerprint(record[1]), num_shards)]
    raise ValueError(f"unknown WAL record kind {kind!r}")
