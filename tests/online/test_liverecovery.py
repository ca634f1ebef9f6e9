"""Tests for live (serve-through) WAL recovery.

The load-bearing property is the tentpole invariant: chunked replay
**interleaved with live traffic** — reads refused or served stale,
writes dual-logged and deferred — must converge to a state
byte-identical to stop-the-world :func:`repro.online.persistence.recover`
of the same directory, for every shard policy kind, at arbitrary crash
cuts and chunk sizes. A second crash mid-recovery must also recover to
the reference (acked writes survive). The unit tests pin the honest
serving semantics a property test would not localize: refusal vs stale
vs pending-view reads, progressive shard readiness, sampled-mode
all-or-nothing gating, and counter purity.
"""

import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import (
    LiveRecoveringKVCache,
    RecoveryInProgress,
)
from repro.online.persistence import (
    PersistentKVCache,
    kv_stats_digest,
    recover,
)
from tests import strategies

#: Every shard policy mode: the classic five plus both adaptive modes.
ALL_POLICIES = strategies.CLASSIC_POLICIES + ("adaptive", "sampled")


def _engine(policy, seed=0):
    """A small engine that evicts readily (4 ways per shard)."""
    return AdaptiveKVCache(
        capacity_entries=16, num_shards=4, policy=policy,
        components=("lru", "lfu"), seed=seed,
    )


def _apply(cache, op, key):
    """One (op, key) through the public serving API; ``get`` on keys
    divisible by four becomes a batched ``get_many`` so ``gmany``
    records land in the WAL too."""
    if op == "get":
        if key % 4 == 0:
            cache.get_many([key, key + 1, key + 2])
        else:
            cache.get(key)
    elif op == "get_or_compute":
        cache.get_or_compute(key, lambda k: k * 3 + 1)
    elif op == "put":
        cache.put(key, key * 7)
    else:
        cache.delete(key)


def _drive(cache, ops):
    for op, key in ops:
        _apply(cache, op, key)


def _drive_live(live, ops, step_every, chunk):
    """Interleave live traffic with replay steps; count refusals."""
    refused = 0
    for index, (op, key) in enumerate(ops):
        try:
            _apply(live, op, key)
        except RecoveryInProgress:
            refused += 1
        if step_every and (index + 1) % step_every == 0:
            live.step(chunk)
    return refused


def _behavior(cache, probe_keys=range(24)):
    """Observable state: merged counters plus a residency probe."""
    return (
        kv_stats_digest(cache.stats()),
        [key in cache for key in probe_keys],
    )


def _seed_crashed_dir(directory, policy, ops):
    """A persistence directory as a crash leaves it: prefix in the WAL."""
    durable = PersistentKVCache(
        _engine(policy), directory, snapshot_every=None, wal_flush_ops=1
    )
    _drive(durable, ops)
    durable.sync()
    durable.close()


class TestLiveReplayIdentity:
    @given(
        policy=st.sampled_from(ALL_POLICIES),
        ops=strategies.shard_op_streams(max_key=23, max_size=200),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_replay_matches_stop_the_world(
        self, policy, ops, data, tmp_path_factory
    ):
        """The tentpole invariant, at arbitrary cuts and chunk sizes."""
        cut = data.draw(st.integers(min_value=0, max_value=len(ops)))
        chunk = data.draw(st.sampled_from([1, 3, 17, 100]))
        step_every = data.draw(st.integers(min_value=1, max_value=8))
        directory = str(tmp_path_factory.mktemp("live"))
        _seed_crashed_dir(directory, policy, ops[:cut])

        live = LiveRecoveringKVCache(directory, chunk_ops=chunk,
                                     wal_flush_ops=1)
        _drive_live(live, ops[cut:], step_every, chunk)
        live.finish()
        live.sync()
        live_behavior = _behavior(live)
        live.close()

        # The reference replays the same WAL — intact prefix plus the
        # records the live run logged (including dual-logged deferred
        # writes) — stop-the-world.
        reference = recover(directory)
        reference.close()
        assert live_behavior == _behavior(reference)

    @given(
        policy=st.sampled_from(ALL_POLICIES),
        ops=strategies.shard_op_streams(max_key=23, max_size=160),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_second_crash_mid_recovery_recovers(
        self, policy, ops, data, tmp_path_factory
    ):
        """Crash again mid-replay: acked ops survive, state is unique."""
        cut = data.draw(st.integers(min_value=0, max_value=len(ops)))
        steps = data.draw(st.integers(min_value=0, max_value=6))
        directory = str(tmp_path_factory.mktemp("live"))
        _seed_crashed_dir(directory, policy, ops[:cut])

        live = LiveRecoveringKVCache(directory, chunk_ops=5,
                                     wal_flush_ops=1)
        _drive_live(live, ops[cut:], step_every=3, chunk=5)
        for _ in range(steps):
            live.step()
        live.sync()
        live.close()  # crash #2: replay and pending writes abandoned

        copy = directory + "-copy"
        shutil.copytree(directory, copy)
        reference = recover(directory)
        reference.close()
        relived = LiveRecoveringKVCache(copy, chunk_ops=7, wal_flush_ops=1)
        relived.finish()
        relived.close()
        assert _behavior(reference) == _behavior(relived)


class TestHonestServing:
    def _crashed(self, tmp_path, policy="lru", keys=range(40)):
        directory = str(tmp_path / "state")
        ops = [("get_or_compute", key) for key in keys]
        _seed_crashed_dir(directory, policy, ops)
        return directory

    def _replaying_key(self, live, limit=64):
        """A key whose shard has not finished replay yet."""
        for key in range(limit):
            if not live.shard_serving(live._shard_index(key)):
                return key
        pytest.fail("no replaying shard found")

    def test_refusal_and_counters(self, tmp_path):
        directory = self._crashed(tmp_path)
        live = LiveRecoveringKVCache(directory, chunk_ops=1)
        key = self._replaying_key(live)
        before = kv_stats_digest(live.cache.stats())
        with pytest.raises(RecoveryInProgress):
            live.get_or_compute(key, lambda k: k)
        assert live.get(key, "dflt") == "dflt"
        assert live.recovery.refused_reads == 2
        # Honest reads never touch engine counters (byte-identity).
        assert kv_stats_digest(live.cache.stats()) == before
        live.close()

    def test_deferred_write_is_served_and_survives(self, tmp_path):
        directory = self._crashed(tmp_path)
        live = LiveRecoveringKVCache(directory, chunk_ops=1,
                                     wal_flush_ops=1)
        key = self._replaying_key(live)
        live.put(key, "acked")
        assert live.recovery.deferred_writes == 1
        assert live.pending_writes() == 1
        # The pending view answers reads for the acked write...
        assert live.get(key) == "acked"
        assert live.recovering_read(key) == "acked"
        assert key in live
        assert live.recovery.stale_serves == 2
        live.sync()
        live.close()  # crash before the deferred op was applied
        recovered = recover(directory)
        assert recovered.get(key) == "acked"
        recovered.close()

    def test_deferred_delete_hides_key(self, tmp_path):
        directory = self._crashed(tmp_path)
        live = LiveRecoveringKVCache(directory, chunk_ops=1)
        key = self._replaying_key(live)
        assert live.delete(key) is False  # residency unknowable yet
        assert live.get(key, "gone") == "gone"
        assert key not in live
        live.finish()
        assert key not in live
        live.close()

    def test_stale_peek_of_partial_shard(self, tmp_path):
        directory = self._crashed(tmp_path)
        live = LiveRecoveringKVCache(directory, chunk_ops=1)
        live.step()  # replay a little into shard 0
        # Any key already replayed into a still-replaying shard serves
        # stale; find one via the engine's residency.
        served = None
        for key in range(40):
            index = live._shard_index(key)
            if not live.shard_serving(index) and key in live.cache:
                served = key
                break
        assert served is not None
        assert live.get(served) == served * 3 + 1
        assert live.recovery.stale_serves == 1
        live.close()

    def test_get_many_splits_by_readiness(self, tmp_path):
        directory = self._crashed(tmp_path)
        live = LiveRecoveringKVCache(directory, chunk_ops=200)
        while live.serving_fraction() < 0.5:
            live.step(1)
        values = live.get_many(list(range(12)), default="miss")
        assert len(values) == 12
        live.finish()
        live.sync()
        behavior = _behavior(live)
        live.close()
        reference = recover(directory)
        reference.close()
        assert behavior == _behavior(reference)


class TestReadinessProgression:
    def test_shards_promote_in_order(self, tmp_path):
        directory = str(tmp_path / "state")
        _seed_crashed_dir(
            directory, "lru",
            [("get_or_compute", key) for key in range(60)],
        )
        live = LiveRecoveringKVCache(directory, chunk_ops=3)
        fractions = [live.serving_fraction()]
        while live.recovering:
            live.step()
            fractions.append(live.serving_fraction())
        assert fractions[-1] == 1.0
        assert fractions == sorted(fractions)  # monotone readiness
        assert not live.recovering
        assert live.step() == 0
        progress = live.replay_progress()
        assert progress["recovering"] is False
        assert progress["applied_records"] == progress["total_records"]
        assert progress["serving_shards"] == progress["num_shards"]
        live.close()

    def test_sampled_mode_is_all_or_nothing(self, tmp_path):
        directory = str(tmp_path / "state")
        _seed_crashed_dir(
            directory, "sampled",
            [("get_or_compute", key) for key in range(60)],
        )
        live = LiveRecoveringKVCache(directory, chunk_ops=3)
        seen = set()
        while live.recovering:
            seen.add(live.serving_fraction())
            live.step()
        # Leader shards share the global selector: no shard may serve
        # (and vote) before the whole chain has replayed.
        assert seen == {0.0}
        assert live.serving_fraction() == 1.0
        live.close()

    def test_completion_rearms_snapshot_rotation(self, tmp_path):
        directory = str(tmp_path / "state")
        _seed_crashed_dir(
            directory, "lru",
            [("get_or_compute", key) for key in range(30)],
        )
        live = LiveRecoveringKVCache(directory, chunk_ops=10,
                                     snapshot_every=5)
        assert live.snapshot_every is None  # held off during replay
        live.finish()
        assert live.snapshot_every == 5
        generation = live.generation
        for key in range(90, 96):  # cross the re-armed cadence
            live.get_or_compute(key, lambda k: k)
        assert live.generation > generation  # compacted the chain
        live.close()

    def test_validation(self, tmp_path):
        directory = str(tmp_path / "state")
        _seed_crashed_dir(directory, "lru", [("put", 1)])
        with pytest.raises(ValueError, match="chunk_ops"):
            LiveRecoveringKVCache(directory, chunk_ops=0)
        with pytest.raises(ValueError, match="snapshot_every"):
            LiveRecoveringKVCache(directory, snapshot_every=0)
