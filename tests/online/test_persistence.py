"""Tests for snapshot + WAL persistence of the online engine.

The load-bearing property is *recovery decision-identity*: a cache
recovered from any crash point must issue byte-identical replacement
decisions to an uninterrupted run — for every shard policy kind, at
arbitrary cuts, under mixed operation streams. The hypothesis tests
here check exactly that (and replay idempotence); the unit tests pin
the framing details a property test would not localize: CRC layout,
torn-tail truncation, snapshot fallback and generation pruning.
"""

import json
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.history import CounterHistory
from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import LiveRecoveringKVCache
from repro.online.persistence import (
    FORMAT_VERSION,
    PersistentKVCache,
    SnapshotCorruptError,
    apply_wal_record,
    encode_record,
    iter_wal,
    kv_stats_digest,
    read_snapshot,
    recover,
    write_snapshot,
)
from tests import strategies

#: Every shard policy mode the engine supports: the five classic fixed
#: policies plus both adaptive modes.
ALL_POLICIES = strategies.CLASSIC_POLICIES + ("adaptive", "sampled")


def _engine(policy, seed=0):
    """A small engine that evicts readily (4 ways per shard)."""
    return AdaptiveKVCache(
        capacity_entries=16, num_shards=4, policy=policy,
        components=("lru", "lfu"), seed=seed,
    )


def _drive(cache, ops):
    """Apply a (op, key) stream through the public serving API."""
    for op, key in ops:
        if op == "get":
            cache.get(key)
        elif op == "get_or_compute":
            cache.get_or_compute(key, lambda k: k * 3 + 1)
        elif op == "put":
            cache.put(key, key * 7)
        else:
            cache.delete(key)


def _behavior(cache, probe_keys=range(24)):
    """Observable state: merged counters plus a residency probe."""
    stats = cache.stats()
    return kv_stats_digest(stats), [key in cache for key in probe_keys]


def _read_wal(path):
    """``(records, intact length)`` of a WAL, via the streaming reader."""
    records, good = [], 0
    for record, good in iter_wal(path):
        records.append(record)
    return records, good


class TestWalFraming:
    def test_record_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        ops = [("get", 1), ("put", 2, 14, None, None), ("del", 3)]
        with open(path, "wb") as handle:
            for op in ops:
                handle.write(encode_record(op))
        records, good = _read_wal(path)
        assert records == ops
        assert good == os.path.getsize(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert _read_wal(str(tmp_path / "absent.log")) == ([], 0)

    def test_torn_tail_truncated(self, tmp_path):
        path = str(tmp_path / "wal.log")
        frames = [encode_record(("get", i)) for i in range(5)]
        blob = b"".join(frames)
        with open(path, "wb") as handle:
            handle.write(blob[:-3])  # tear the last frame
        records, good = _read_wal(path)
        assert records == [("get", i) for i in range(4)]
        assert good == sum(len(f) for f in frames[:4])

    def test_flipped_byte_stops_at_crc(self, tmp_path):
        path = str(tmp_path / "wal.log")
        frames = [encode_record(("get", i)) for i in range(3)]
        blob = bytearray(b"".join(frames))
        blob[len(frames[0]) + 9] ^= 0xFF  # corrupt frame 1's payload
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        records, good = _read_wal(path)
        assert records == [("get", 0)]
        assert good == len(frames[0])

    def test_iter_wal_offsets_are_intact_prefix_lengths(self, tmp_path):
        path = str(tmp_path / "wal.log")
        frames = [encode_record(("get", i)) for i in range(6)]
        with open(path, "wb") as handle:
            handle.write(b"".join(frames)[:-5])  # torn tail
        streamed = list(iter_wal(path))
        assert [record for record, _ in streamed] == [
            ("get", i) for i in range(5)
        ]
        # Offsets are the running intact-prefix lengths.
        expected, offsets = 0, []
        for frame in frames[:5]:
            expected += len(frame)
            offsets.append(expected)
        assert [offset for _, offset in streamed] == offsets
        assert list(iter_wal(str(tmp_path / "absent.log"))) == []


class TestSnapshotFraming:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        state = {"shards": [1, 2, 3], "nested": {"x": [True, None]}}
        write_snapshot(path, state)
        assert read_snapshot(path) == state

    @pytest.mark.parametrize("damage", ["truncate", "magic", "payload"])
    def test_damage_detected(self, tmp_path, damage):
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, {"k": list(range(100))})
        blob = bytearray(open(path, "rb").read())
        if damage == "truncate":
            blob = blob[:10]
        elif damage == "magic":
            blob[0] ^= 0xFF
        else:
            blob[25] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            read_snapshot(path)


class TestFormatVersion:
    def test_format_1_directory_is_refused(self, tmp_path):
        """Format 1 recorded a byte budget in the manifest's config and a
        byte size in every ``put`` record. Both recovery paths refuse
        such a directory by its format number, before the old config
        can reach the engine constructor as an unknown argument."""
        durable = PersistentKVCache(_engine("lru"), str(tmp_path),
                                    snapshot_every=None, wal_flush_ops=1)
        durable.put(1, "v")
        durable.close()
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == FORMAT_VERSION == 3
        manifest["format"] = 1
        manifest["config"]["capacity_bytes"] = None
        manifest_path.write_text(json.dumps(manifest))
        with open(tmp_path / "wal-00000000.log", "ab") as wal:
            wal.write(encode_record(("put", 2, "w", None, None)))
        refusal = "unsupported persistence format 1"
        with pytest.raises(ValueError, match=refusal):
            recover(str(tmp_path))
        with pytest.raises(ValueError, match=refusal):
            LiveRecoveringKVCache(str(tmp_path))

    def test_format_2_directory_is_refused(self, tmp_path):
        """Format 2 records carry no log time, so replaying them would
        restart every logged TTL at recovery; both paths refuse it."""
        durable = PersistentKVCache(_engine("lru"), str(tmp_path),
                                    snapshot_every=None, wal_flush_ops=1)
        durable.close()
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 2
        manifest_path.write_text(json.dumps(manifest))
        refusal = "unsupported persistence format 2"
        with pytest.raises(ValueError, match=refusal):
            recover(str(tmp_path))
        with pytest.raises(ValueError, match=refusal):
            LiveRecoveringKVCache(str(tmp_path))


class TestRecoveryDecisionIdentity:
    @given(
        policy=st.sampled_from(ALL_POLICIES),
        ops=strategies.shard_op_streams(max_key=23, max_size=200),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovery_at_arbitrary_cut_matches_uninterrupted(
        self, policy, ops, data, tmp_path_factory
    ):
        """Crash after the cut, recover, finish: identical behavior."""
        cut = data.draw(st.integers(min_value=0, max_value=len(ops)))
        directory = str(tmp_path_factory.mktemp("wal"))

        reference = _engine(policy)
        _drive(reference, ops)

        durable = PersistentKVCache(
            _engine(policy), directory, snapshot_every=7, wal_flush_ops=3
        )
        _drive(durable, ops[:cut])
        durable.sync()
        durable.close()  # crash after the last fsync
        del durable

        recovered = recover(directory, snapshot_every=7, wal_flush_ops=3)
        _drive(recovered, ops[cut:])
        recovered.close()

        assert _behavior(recovered) == _behavior(reference)

    @given(
        policy=st.sampled_from(ALL_POLICIES),
        ops=strategies.shard_op_streams(max_key=23, max_size=120),
    )
    @settings(max_examples=15, deadline=None)
    def test_recovery_is_idempotent(self, policy, ops, tmp_path_factory):
        """Recovering the same directory twice yields the same cache."""
        directory = str(tmp_path_factory.mktemp("wal"))
        durable = PersistentKVCache(
            _engine(policy), directory, snapshot_every=11, wal_flush_ops=2
        )
        _drive(durable, ops)
        durable.sync()
        durable.close()

        copy = directory + "-copy"
        shutil.copytree(directory, copy)
        first = recover(directory, snapshot_every=11, wal_flush_ops=2)
        second = recover(copy, snapshot_every=11, wal_flush_ops=2)
        first.close()
        second.close()
        assert _behavior(first) == _behavior(second)

    def test_wal_replay_reconstructs_engine(self):
        """Applying a decoded log equals driving the ops live."""
        ops = [("get_or_compute", k % 9) for k in range(40)]
        reference = _engine("lru")
        _drive(reference, ops)
        records = [("goc_fill", k % 9, (k % 9) * 3 + 1, None, 0.0)
                   for k in range(40)]
        replayed = _engine("lru")
        for record in records:
            apply_wal_record(replayed, record)
        assert _behavior(replayed) == _behavior(reference)

    @pytest.mark.parametrize("policy", ["lru", "adaptive", "sampled"])
    def test_raising_loader_recovers_the_applied_miss(self, policy,
                                                      tmp_path):
        """The engine counts a miss and trains its policy before the
        loader runs; when the loader (or the fill) raises, both
        recoveries must still rebuild that engine exactly."""
        directory = str(tmp_path / "wal")
        durable = PersistentKVCache(
            _engine(policy), directory, snapshot_every=None, wal_flush_ops=1
        )

        def failing(key):
            raise RuntimeError("backend down")

        _drive(durable, [("get_or_compute", k % 30) for k in range(40)])
        with pytest.raises(RuntimeError, match="backend down"):
            durable.get_or_compute(99, failing)
        with pytest.raises(ValueError, match="ttl"):
            durable.get_or_compute(98, lambda k: k, ttl=0)  # fill refused
        with pytest.raises(TypeError):
            durable.get_or_compute(1.5, failing)  # refused before a miss
        _drive(durable, [("get_or_compute", k % 17) for k in range(40)])
        expected = durable.cache.state_dict()
        durable.close()

        copy = directory + "-copy"
        shutil.copytree(directory, copy)
        recovered = recover(directory)
        live = LiveRecoveringKVCache(copy, chunk_ops=5)
        live.finish()
        assert recovered.cache.state_dict() == expected
        assert live.cache.state_dict() == expected
        recovered.close()
        live.close()

    def test_membership_probe_of_a_lapsed_entry_changes_nothing(
            self, tmp_path):
        """``in`` logs nothing, so it must expire nothing either: a
        probe of a TTL-lapsed key leaves the engine as its WAL
        rebuilds it."""
        now = [0.0]
        directory = str(tmp_path / "wal")
        durable = PersistentKVCache(
            AdaptiveKVCache(capacity_entries=16, num_shards=4,
                            default_ttl=5, clock=lambda: now[0]),
            directory,
        )
        for key in range(6):
            durable.put(key, key)
        now[0] = 10.0
        assert 3 not in durable
        stats = durable.cache.stats()
        assert (stats.expirations, stats.occupancy) == (0, 6)
        durable.close()
        # The last record was logged at t=0, so a recovery then loses
        # no time; compare both engines at the probe's time.
        now[0] = 0.0
        recovered = recover(directory, clock=lambda: now[0])
        now[0] = 10.0
        assert recovered.cache.state_dict() == durable.cache.state_dict()
        recovered.close()

    @pytest.mark.parametrize("path", ["stop-the-world", "live"])
    def test_replayed_ttl_keeps_its_logged_deadline(self, path, tmp_path):
        """A TTL replayed from the WAL counts from its write, not from
        the recovery: ``put(0)`` at t=0 with a 5 s TTL has lapsed at
        t=10 in the live engine, and must have lapsed in the recovered
        one too (zero downtime: recovery at the last write's time)."""
        now = [0.0]
        directory = str(tmp_path / "wal")
        durable = PersistentKVCache(
            AdaptiveKVCache(capacity_entries=16, num_shards=4,
                            default_ttl=5, clock=lambda: now[0]),
            directory, snapshot_every=None, wal_flush_ops=1,
        )
        durable.put(0, "zero")
        now[0] = 10.0
        durable.put(1, "one")
        durable.abandon()
        assert durable.cache.get(0) is None
        if path == "live":
            recovered = LiveRecoveringKVCache(directory, chunk_ops=1,
                                              wal_flush_ops=1,
                                              clock=lambda: now[0])
            recovered.finish()
        else:
            recovered = recover(directory, wal_flush_ops=1,
                                clock=lambda: now[0])
        assert recovered.get(0) is None
        assert recovered.get(1) == "one"
        # Downtime is skipped: ten more seconds pass before the next
        # recovery, and key 1 still has its full 5 s left after it.
        expected = recovered.cache.state_dict()
        recovered.abandon()
        now[0] = 20.0
        again = recover(directory, clock=lambda: now[0])
        assert again.cache.state_dict() == expected
        now[0] = 24.0
        assert again.get(1) == "one"
        now[0] = 25.0
        assert again.get(1) is None
        again.close()

    @pytest.mark.parametrize("path", ["stop-the-world", "live"])
    def test_loaded_ttl_counts_from_the_fill(self, path, tmp_path):
        """A miss fills after its loader returns, so a slow loader's
        TTL counts from the fill in the live engine, and the replayed
        fill must keep the same deadline."""
        now = [0.0]
        directory = str(tmp_path / "wal")
        durable = PersistentKVCache(
            AdaptiveKVCache(capacity_entries=16, num_shards=4,
                            clock=lambda: now[0]),
            directory, snapshot_every=None, wal_flush_ops=1,
        )

        def slow_loader(key):
            now[0] += 3.0
            return ("loaded", key)

        durable.get_or_compute(0, slow_loader, ttl=5.0)
        durable.put(1, "one")  # the log's newest time: the fill's
        durable.abandon()
        expected = durable.cache.state_dict()
        if path == "live":
            recovered = LiveRecoveringKVCache(directory, chunk_ops=1,
                                              wal_flush_ops=1,
                                              clock=lambda: now[0])
            recovered.finish()
        else:
            recovered = recover(directory, wal_flush_ops=1,
                                clock=lambda: now[0])
        assert recovered.cache.state_dict() == expected
        now[0] = 7.5
        assert recovered.get(0) == ("loaded", 0)
        now[0] = 8.0
        assert recovered.get(0) is None
        recovered.close()

    def test_engine_with_a_history_factory_is_refused(self, tmp_path):
        """Recovery cannot rebuild a custom miss history, so such an
        engine is never persisted."""
        engine = AdaptiveKVCache(capacity_entries=16, num_shards=2,
                                 history_factory=CounterHistory)
        with pytest.raises(ValueError, match="history_factory"):
            PersistentKVCache(engine, str(tmp_path / "wal"))
        assert not os.path.exists(tmp_path / "wal")

    def test_rotating_write_is_durable_before_it_applies(self, tmp_path):
        """With ``wal_flush_ops=1`` the write that triggers a snapshot
        rotation reaches the new WAL before ``put`` returns, so a crash
        right after it keeps it."""
        directory = str(tmp_path / "wal")
        durable = PersistentKVCache(_engine("lru"), directory,
                                    snapshot_every=3, wal_flush_ops=1)
        for key in range(3):
            durable.put(key, key)
        durable.abandon()
        recovered = recover(directory)
        assert [recovered.get(key) for key in range(3)] == [0, 1, 2]
        recovered.close()

    def test_unknown_record_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown WAL record"):
            apply_wal_record(_engine("lru"), ("warp", 1))


class TestCrashWindows:
    def test_torn_wal_tail_tolerated(self, tmp_path):
        """A crash mid-append loses only the torn record."""
        directory = str(tmp_path / "state")
        durable = PersistentKVCache(
            _engine("adaptive"), directory,
            snapshot_every=None, wal_flush_ops=1,
        )
        for key in range(30):
            durable.get_or_compute(key % 11, lambda k: k)
        durable.close()
        wal = os.path.join(directory, "wal-00000000.log")
        size = os.path.getsize(wal)
        with open(wal, "r+b") as handle:
            handle.truncate(size - 5)
        recovered = recover(directory)
        assert recovered.stats().gets == 29  # exactly one record lost
        recovered.close()

    def test_corrupt_newest_snapshot_falls_back_a_generation(self, tmp_path):
        directory = str(tmp_path / "state")
        durable = PersistentKVCache(
            _engine("adaptive"), directory, snapshot_every=10,
            wal_flush_ops=1,
        )
        for key in range(35):
            durable.get_or_compute(key % 11, lambda k: k)
        durable.sync()
        durable.close()
        reference = _behavior(durable)
        newest = max(
            name for name in os.listdir(directory)
            if name.startswith("snapshot-")
        )
        with open(os.path.join(directory, newest), "r+b") as handle:
            handle.seek(15)
            handle.write(b"\xff\xff\xff")
        recovered = recover(directory, snapshot_every=10, wal_flush_ops=1)
        recovered.close()
        assert _behavior(recovered) == reference

    def test_all_snapshots_corrupt_raises(self, tmp_path):
        directory = str(tmp_path / "state")
        durable = PersistentKVCache(_engine("lru"), directory)
        durable.close()
        for name in os.listdir(directory):
            if name.startswith("snapshot-"):
                with open(os.path.join(directory, name), "r+b") as handle:
                    handle.write(b"XXXXXXXX")
        with pytest.raises(SnapshotCorruptError, match="no intact snapshot"):
            recover(directory)

    def test_old_generations_pruned(self, tmp_path):
        directory = str(tmp_path / "state")
        durable = PersistentKVCache(
            _engine("lru"), directory, snapshot_every=5, wal_flush_ops=1
        )
        for key in range(40):
            durable.get_or_compute(key % 7, lambda k: k)
        durable.close()
        snapshots = [n for n in os.listdir(directory)
                     if n.startswith("snapshot-")]
        wals = [n for n in os.listdir(directory) if n.startswith("wal-")]
        assert len(snapshots) <= 2
        assert len(wals) <= 2


class TestDigest:
    def test_digest_stable_and_sensitive(self):
        cache = _engine("lru")
        cache.put("a", 1)
        base = kv_stats_digest(cache.stats())
        assert base == kv_stats_digest(cache.stats())
        cache.get("a")
        assert kv_stats_digest(cache.stats()) != base
