"""Crash-safe persistence for the online engine: snapshots + WAL.

The durability design follows the classic two-structure recipe:

* **Snapshots** — periodic full captures of the engine's
  :meth:`~repro.online.engine.AdaptiveKVCache.state_dict` (entries,
  way allocation, counters and every byte of policy state), pickled
  into a CRC-guarded frame and written through
  :func:`repro.utils.atomicio.atomic_output` so a crash mid-snapshot
  can never destroy the previous one.
* **A write-ahead log** — exactly the operations the engine applied,
  in the order it applied them (including reads: ``get`` trains
  recency and replays into shadow directories, so reads *are* state
  mutations here), each a CRC32-framed record in the current
  generation's log file. An operation encodes its record, applies it,
  and appends the record only once the engine returns, so a request
  the engine refuses is never logged. Appends are buffered and
  flushed every ``wal_flush_ops`` operations, keeping the log off the
  hot path at the price of a bounded window of recent operations on a
  hard crash.

Recovery (:func:`recover`) loads the newest intact snapshot — falling
back one generation if the newest is torn or corrupt — then replays
the write-ahead logs from that generation forward. A torn or
CRC-corrupt tail record (the signature of a crash mid-append) is
truncated and replay continues; because the engine is deterministic,
the recovered cache then issues byte-identical replacement decisions
to an uninterrupted run over the persisted prefix.

Time: every record and snapshot carries the engine clock's reading
when it was applied, on one *log timeline*. Replay applies each record
at its own logged time, and the recovered engine's clock continues the
timeline from the newest persisted reading: the time between that
reading and the recovery (the downtime) is skipped, so an entry keeps
exactly the TTL it had left when the log ends, whether the snapshot or
a WAL record carried it.

Generations: ``snapshot-N`` captures the state after all operations
logged in ``wal-(N-1)``; ``wal-N`` holds the operations after it. A
snapshot holds exactly what replaying the log rebuilds. The two newest
generations are retained, older ones pruned.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
import zlib
from typing import BinaryIO, Callable, Iterator, List, Optional, Tuple

from repro.online.contract import KVLayer
from repro.online.engine import AdaptiveKVCache
from repro.utils.atomicio import atomic_output, atomic_write_text

#: Snapshot frame magic (8 bytes) — identifies format and version.
SNAPSHOT_MAGIC = b"RKVSNAP1"
#: Manifest / record format version. Format 1 carried a byte size in
#: every ``put`` record and shard snapshot, and could hold multi-key
#: batched-get records; format 2 carried no log time, so its replay
#: restarted every logged TTL. Older directories are refused, not
#: upgraded.
FORMAT_VERSION = 3
#: Header of one WAL record: CRC32 then payload length (little-endian).
_RECORD_HEADER = 8


class SnapshotCorruptError(RuntimeError):
    """A snapshot file failed its magic or CRC check."""


class _LogClock:
    """A recovered engine's clock: the log timeline, continued.

    Reads ``clock() - base``, where :meth:`resume` sets ``base`` so
    that the newest persisted reading maps to the moment of recovery.
    While :meth:`replay` applies a snapshot or record, the reading is
    pinned to the log time that one carries.
    """

    def __init__(self, clock: Optional[Callable[[], float]]):
        self._clock = clock if clock is not None else time.monotonic
        self._base = 0.0
        self._at: Optional[float] = None

    def __call__(self) -> float:
        if self._at is not None:
            return self._at
        return self._clock() - self._base

    def replay(self, log_time: float, apply: Callable, *args) -> None:
        """Run ``apply(*args)`` with the clock pinned at ``log_time``."""
        self._at = log_time
        try:
            apply(*args)
        finally:
            self._at = None

    def resume(self, log_time: float) -> None:
        """Continue the timeline at ``log_time`` from now on."""
        self._base = self._clock() - log_time


def _snapshot_name(generation: int) -> str:
    """Filename of generation ``generation``'s snapshot."""
    return f"snapshot-{generation:08d}.bin"


def _wal_name(generation: int) -> str:
    """Filename of generation ``generation``'s write-ahead log."""
    return f"wal-{generation:08d}.log"


def encode_record(op: tuple) -> bytes:
    """Frame one operation tuple as ``crc32 | length | pickle(op)``."""
    payload = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(payload)
    return (
        crc.to_bytes(4, "little")
        + len(payload).to_bytes(4, "little")
        + payload
    )


def read_record(handle: BinaryIO) -> Optional[Tuple[tuple, int]]:
    """Decode the WAL frame at ``handle``'s position.

    The one place a frame header is parsed. Returns ``(record,
    frame_size)``, or None when the frame is torn (short header or
    payload) or fails its CRC.
    """
    header = handle.read(_RECORD_HEADER)
    if len(header) < _RECORD_HEADER:
        return None
    crc = int.from_bytes(header[:4], "little")
    length = int.from_bytes(header[4:8], "little")
    payload = handle.read(length)
    if len(payload) < length or zlib.crc32(payload) != crc:
        return None
    return pickle.loads(payload), _RECORD_HEADER + length


def iter_wal(path: str) -> Iterator[Tuple[tuple, int]]:
    """Stream a WAL file record by record, tolerating a torn tail.

    Yields ``(record, end_offset)`` pairs — the decoded operation and
    the byte offset just past its frame — holding only one record in
    memory at a time, so arbitrarily long logs replay in bounded
    space. A truncated header, short payload or CRC mismatch stops
    decoding; everything before it is trusted (each record carries its
    own CRC, so corruption cannot silently pass). A missing file
    yields nothing.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        offset = 0
        while True:
            frame = read_record(handle)
            if frame is None:
                return
            record, size = frame
            offset += size
            yield record, offset


def write_snapshot(path: str, state: dict) -> None:
    """Atomically write a CRC-guarded snapshot frame."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(payload)
    with atomic_output(path) as handle:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(crc.to_bytes(4, "little"))
        handle.write(len(payload).to_bytes(8, "little"))
        handle.write(payload)


def read_snapshot(path: str) -> dict:
    """Load a snapshot frame, raising on any integrity violation."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(SNAPSHOT_MAGIC) + 12:
        raise SnapshotCorruptError(f"{path}: truncated snapshot header")
    if data[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotCorruptError(f"{path}: bad snapshot magic")
    crc = int.from_bytes(data[8:12], "little")
    length = int.from_bytes(data[12:20], "little")
    payload = data[20:20 + length]
    if len(payload) != length:
        raise SnapshotCorruptError(f"{path}: truncated snapshot payload")
    if zlib.crc32(payload) != crc:
        raise SnapshotCorruptError(f"{path}: snapshot CRC mismatch")
    return pickle.loads(payload)


def kv_stats_digest(stats) -> str:
    """Stable hex digest of a :class:`~repro.online.stats.KVCacheStats`.

    Used by the kill-and-recover smoke check: a recovered run's digest
    must equal the uninterrupted run's.
    """
    import dataclasses
    import hashlib

    payload = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class PersistentKVCache(KVLayer):
    """An :class:`~repro.online.engine.AdaptiveKVCache` with durability.

    Wraps an engine; every public operation encodes its record,
    applies it to the engine and appends the record to the current
    write-ahead log once the engine returns, all under one wrapper
    lock: the log holds exactly the applied operations, in apply order
    (which replay depends on). The engine's hot path is untouched —
    durability lives entirely in this wrapper, and the WAL buffer
    amortises file writes.

    Args:
        cache: the engine to persist; must be freshly constructed (or
            freshly recovered) so the snapshot chain matches its state,
            and built without a ``history_factory`` (``ValueError``).
        directory: where snapshots, WALs and the manifest live;
            created if missing.
        snapshot_every: operations between automatic snapshots
            (``None``: the WAL alone carries every operation after
            the first snapshot).
        wal_flush_ops: buffered operations per WAL flush+fsync. 1 means
            every operation is durable before it is acknowledged;
            larger values trade a bounded recent-operation window for
            speed.
        _generation: internal — starting generation (used by
            :func:`recover`).
        _wal_offset: internal — byte offset to continue the current
            WAL at (used by :func:`recover` after tail truncation).
    """

    def __init__(
        self,
        cache: AdaptiveKVCache,
        directory: str,
        snapshot_every: Optional[int] = 10_000,
        wal_flush_ops: int = 64,
        _generation: int = 0,
        _wal_offset: Optional[int] = None,
    ):
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        if wal_flush_ops <= 0:
            raise ValueError(
                f"wal_flush_ops must be positive, got {wal_flush_ops}"
            )
        if cache._history_factory is not None:
            # The manifest cannot name a callable, and recovery builds
            # the default history: refuse rather than recover wrongly.
            raise ValueError(
                "cannot persist an engine with a history_factory"
            )
        super().__init__(cache)
        # Records and snapshots carry this clock's reading: the
        # engine's own, so replay can pin it (see ``_LogClock``).
        self._clock = cache._clock
        self.directory = os.fspath(directory)
        self.snapshot_every = snapshot_every
        self.wal_flush_ops = wal_flush_ops
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._buffer = bytearray()
        self._ops_since_snapshot = 0
        self.generation = _generation
        self.snapshots_taken = 0
        if _wal_offset is None:
            # Fresh cache: anchor the chain with a generation-0 snapshot
            # of the initial state so fallback recovery is uniform.
            self._write_snapshot_locked()
        # Append mode creates the newest WAL if a crash landed before
        # its first append; truncation drops a torn tail.
        self._wal = open(self._path(_wal_name(self.generation)), "ab")
        if _wal_offset is not None:
            self._wal.truncate(_wal_offset)

    # ------------------------------------------------------------------
    # Serving API (mirrors AdaptiveKVCache)
    # ------------------------------------------------------------------

    def get(self, key, default=None):
        """Logged :meth:`~repro.online.engine.AdaptiveKVCache.get`."""
        with self._lock:
            frame = encode_record(("get", key, self._clock()))
            value = self.cache.get(key, default)
            self._append(frame)
            return value

    def put(self, key, value, ttl=None) -> None:
        """Logged :meth:`~repro.online.engine.AdaptiveKVCache.put`."""
        with self._lock:
            frame = encode_record(("put", key, value, ttl, self._clock()))
            self.cache.put(key, value, ttl=ttl)
            self._append(frame)

    def get_or_compute(self, key, loader, ttl=None):
        """Logged get-or-compute.

        The loader itself cannot be serialized, so on a miss the
        *loaded value* is what reaches the log — replay re-installs it
        without re-running the loader, which both makes recovery
        deterministic and spares the loader a thundering replay. The
        plain ``get`` record is encoded before the engine runs, as every
        other operation's is; the fill's record is encoded inside the
        loader, so a value that cannot be encoded fails as the loader
        would and is never cached. A miss whose loader raises is logged
        as the plain ``get`` the engine had already applied when the
        loader ran.
        """
        with self._lock:
            frame = encode_record(("get", key, self._clock()))
            missed = False
            fill = None

            def logging_loader(k):
                nonlocal missed, fill
                missed = True
                value = loader(k)
                # The engine fills right after the loader returns, so
                # the fill's deadline counts from then.
                fill = encode_record(("goc_fill", key, value, ttl,
                                      self._clock()))
                return value

            try:
                value = self.cache.get_or_compute(key, logging_loader,
                                                  ttl=ttl)
            except BaseException:
                if missed:
                    self._append(frame)
                raise
            self._append(fill or frame)
            return value

    def delete(self, key) -> bool:
        """Logged :meth:`~repro.online.engine.AdaptiveKVCache.delete`."""
        with self._lock:
            frame = encode_record(("del", key, self._clock()))
            deleted = self.cache.delete(key)
            self._append(frame)
            return deleted

    # ------------------------------------------------------------------
    # Durability controls
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Flush and fsync every buffered WAL record."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Flush the WAL and release the log file handle."""
        with self._lock:
            self._flush_locked()
            self._wal.close()

    def abandon(self) -> None:
        """Die un-flushed: the crash model.

        Releases the log file handle *without* writing the buffer, so
        the records since the last flush are lost exactly as in a
        SIGKILL; only the on-disk snapshot/WAL chain survives for
        :func:`recover`. The wrapper must not be used afterwards.
        """
        with self._lock:
            self._wal.close()

    def __enter__(self) -> "PersistentKVCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals (caller holds the wrapper lock)
    # ------------------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _append(self, frame: bytes) -> None:
        """Buffer the frame of one operation the engine applied; flush
        or rotate on cadence. The frame always belongs in the current
        WAL: a rotation's snapshot already holds its effect."""
        self._buffer += frame
        self._ops_since_snapshot += 1
        if (self.snapshot_every is not None
                and self._ops_since_snapshot >= self.snapshot_every):
            self._rotate_locked()
        elif self._ops_since_snapshot % self.wal_flush_ops == 0:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._buffer:
            self._wal.write(self._buffer)
            self._buffer.clear()
        self._wal.flush()
        os.fsync(self._wal.fileno())

    def _rotate_locked(self) -> None:
        """Start a new generation: flush the WAL, snapshot the current
        state, open a fresh WAL."""
        self._flush_locked()
        self._wal.close()
        self.generation += 1
        self._write_snapshot_locked()
        self._wal = open(self._path(_wal_name(self.generation)), "ab")
        self._ops_since_snapshot = 0
        self.snapshots_taken += 1
        self._prune_locked()

    def _write_snapshot_locked(self) -> None:
        write_snapshot(
            self._path(_snapshot_name(self.generation)),
            {"log_time": self._clock(), "engine": self.cache.state_dict()},
        )
        manifest = {
            "format": FORMAT_VERSION,
            "generation": self.generation,
            "config": self.cache.config,
        }
        atomic_write_text(
            self._path("MANIFEST.json"), json.dumps(manifest, indent=2)
        )

    def _prune_locked(self) -> None:
        """Drop snapshot/WAL generations older than the newest two."""
        floor = self.generation - 1
        for name in os.listdir(self.directory):
            for prefix in ("snapshot-", "wal-"):
                if name.startswith(prefix):
                    try:
                        gen = int(name[len(prefix):].split(".")[0])
                    except ValueError:
                        continue
                    if gen < floor:
                        try:
                            os.unlink(self._path(name))
                        except OSError:
                            pass


def apply_wal_record(cache: AdaptiveKVCache, record: tuple) -> None:
    """Apply one decoded WAL record to an engine.

    The record's last field, its log time, is the caller's to pin
    (:meth:`_LogClock.replay`); the engine reads its own clock.
    """
    kind = record[0]
    if kind == "get":
        cache.get(record[1])
    elif kind == "put":
        _, key, value, ttl, _at = record
        cache.put(key, value, ttl=ttl)
    elif kind == "goc_fill":
        _, key, value, ttl, _at = record
        cache.get_or_compute(key, lambda _k: value, ttl=ttl)
    elif kind == "del":
        cache.delete(record[1])
    else:
        raise ValueError(f"unknown WAL record kind {kind!r}")


def load_snapshot_engine(
    directory: str,
    clock: Callable[[], float] = None,
) -> Tuple[AdaptiveKVCache, _LogClock, List[str], int]:
    """Rebuild an engine from the newest intact snapshot in ``directory``.

    The snapshot-loading half of :func:`recover` — shared with
    :class:`~repro.online.liverecovery.LiveRecoveringKVCache`, which
    replays the WAL chain incrementally instead of all at once.

    Returns:
        ``(cache, log_clock, wal_paths, latest_generation)`` — the
        engine restored from the newest intact snapshot (falling back
        one generation when the newest is torn or corrupt), its clock,
        resumed at the snapshot's log time (replay pins it at each
        record's, and resumes it at the newest one's), the WALs that
        still need replaying onto it, oldest first (the last one is
        ``latest_generation``'s, possibly not yet created), and the
        manifest's latest generation.

    Raises:
        FileNotFoundError: no manifest in ``directory``.
        SnapshotCorruptError: no intact snapshot survives.
    """
    directory = os.fspath(directory)
    with open(os.path.join(directory, "MANIFEST.json")) as handle:
        manifest = json.load(handle)
    if manifest.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported persistence format {manifest.get('format')!r}"
        )
    config = dict(manifest["config"])
    config["components"] = tuple(config["components"])
    latest = int(manifest["generation"])

    state = None
    loaded_gen = None
    for generation in (latest, latest - 1):
        if generation < 0:
            break
        path = os.path.join(directory, _snapshot_name(generation))
        try:
            state = read_snapshot(path)
            loaded_gen = generation
            break
        except (FileNotFoundError, SnapshotCorruptError):
            continue
    if state is None:
        raise SnapshotCorruptError(
            f"no intact snapshot at generations {latest} or {latest - 1} "
            f"in {directory}"
        )

    log_clock = _LogClock(clock)
    cache = AdaptiveKVCache(clock=log_clock, **config)
    log_clock.replay(state["log_time"], cache.load_state_dict,
                     state["engine"])
    log_clock.resume(state["log_time"])
    wal_paths = [
        os.path.join(directory, _wal_name(generation))
        for generation in range(loaded_gen, latest + 1)
    ]
    return cache, log_clock, wal_paths, latest


def recover(
    directory: str,
    snapshot_every: Optional[int] = 10_000,
    wal_flush_ops: int = 64,
    clock: Callable[[], float] = None,
) -> PersistentKVCache:
    """Rebuild a :class:`PersistentKVCache` from its on-disk state.

    Loads the newest intact snapshot (falling back one generation when
    the newest fails its CRC — e.g. a crash straddled the atomic
    replace), replays every write-ahead log from that generation
    forward with torn tails truncated, and returns a wrapper appending
    to the newest log exactly where the intact prefix ends.

    Args:
        directory: the persistence directory of a previous run.
        snapshot_every: automatic-snapshot cadence for the new wrapper.
        wal_flush_ops: WAL flush cadence for the new wrapper.
        clock: time-source override (a callable cannot be recorded
            in the manifest).

    Raises:
        FileNotFoundError: no manifest in ``directory``.
        SnapshotCorruptError: no intact snapshot survives.
    """
    cache, log_clock, wal_paths, latest = load_snapshot_engine(
        directory, clock=clock
    )

    # The reference replay: one sequential pass in log order, each
    # record at its own log time.
    log_time = None
    for wal_path in wal_paths:
        offset = 0
        for record, offset in iter_wal(wal_path):
            log_time = record[-1]
            log_clock.replay(log_time, apply_wal_record, cache, record)
    if log_time is not None:
        log_clock.resume(log_time)
    # ``offset`` is now the intact length of the newest WAL.
    return PersistentKVCache(
        cache,
        directory,
        snapshot_every=snapshot_every,
        wal_flush_ops=wal_flush_ops,
        _generation=latest,
        _wal_offset=offset,
    )
