"""One state machine over every serving composition.

The reference model is a dict (key -> value and deadline) plus an
acked-write ledger. The machine drives one layer of
:data:`tests.online.test_contract.LAYERS` with get, put, delete,
get_or_compute and clock advance, and with whatever faults the layer
can suffer: crash (optionally tearing an in-flight WAL record) and
recovery, stop-the-world or live with replay steps in between, shard
quarantine and rebuild under the resilient ladder, and node kill,
recovery, partition, heal and flakiness under the cluster ring.

Each guarantee is stated once, as an invariant or as the check of the
rule whose answer it constrains:

* **No wrong values.** Every answer is the model's value, or a miss
  the model allows. Where a layer may legally serve an older value (a
  stale fallback, a shard still replaying its WAL, a replica behind
  its peers) the value must still be one the key was given.
* **A stale serve is never counted as a hit.** A read answered with
  anything but the key's current value leaves every shard's hit
  counter where it was.
* **Every acked write survives a crash.** Durable layers ack each
  operation once it is on disk, so after any crash and recovery every
  serving shard holds exactly the model's entries, deadlines included
  (downtime is skipped); a stop-the-world recovery rebuilds the
  crashed engine exactly, and a completed live recovery builds what
  stop-the-world recovery builds. On the cluster ring an ack means a
  majority of the key's replicas hold the version, which then stays
  held by some live replica however nodes fail, and no replica goes
  back to an older version while it stays up. A ring whose nodes
  evict may age an acked write out; there a durable node instead
  recovers exactly the state it crashed with.
* **Capacity.** ``len`` of the layer and of every shard beneath it
  stays within its capacity.
* **The Appendix's 2x bound.** Every reference the layer serves also
  reaches an engine in the bound-checkable configuration
  (:func:`tests.invariants.bound.bound_engine`), as do scan cycles on
  the layers without fault rules (a hot set re-referenced between
  short scans of new keys, where the components' misses part
  furthest); its misses stay within twice its better component's
  plus the warm-up slack.

The layers are the contract's, plus :data:`STRESSED`: compositions
past the contract's no-eviction capacity.
"""

from __future__ import annotations

import functools
import itertools
import os
import pathlib
import shutil
import tempfile
from dataclasses import dataclass
from typing import Optional

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.cluster.cache import ClusterKVCache, WriteQuorumError
from repro.cluster.latency import LatencyModel
from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import LiveRecoveringKVCache, RecoveryInProgress
from repro.online.persistence import (
    PersistentKVCache,
    encode_record,
    iter_wal,
    read_snapshot,
    recover,
)
from repro.online.resilience import (
    CircuitBreaker,
    LoaderUnavailable,
    ResilientKVCache,
    RetryPolicy,
)
from repro.online.shard import CacheShard
from repro.tiers.kv import TieredKVCache
from tests.invariants.bound import bound_engine, engine_bound_report
from tests.online.test_contract import LAYERS, TTL_LAYERS, WAL_SETTINGS

#: The keyspace: small, so operations collide on keys and shards.
KEYS = (0, 1, 2, "a")
TTLS = (None, 1.0, 4.0)
STEPS = (0.5, 2.0, 5.0)
#: Component pairs the bound engine adapts over.
PAIRS = (("lru", "lfu"), ("lru", "fifo"), ("fifo", "lfu"))
#: Bound-engine shapes: (capacity, shards).
BOUND_SHAPES = ((4, 1), (8, 2))
#: Bytes of an in-flight record that reach the WAL before a crash.
TEARS = (0, 1, 7, 8, 20)
#: Snapshot cadences a recovered layer may take: short ones rotate
#: often, long ones leave a long WAL for the next recovery to replay.
CADENCES = (2, 4, 16)

MISS = object()

#: Layers beyond the contract's table, past its no-eviction capacity:
#: a durable ring of two-entry nodes, whose latency tail triggers
#: hedged reads.
STRESSED = {
    "durable-ring": lambda d, clock: ClusterKVCache(
        capacity_per_node=2, directory=str(d / "ring"), hedge_after=0.01,
        latency_factory=lambda index: LatencyModel(spike_rate=0.3,
                                                   seed=index),
        **WAL_SETTINGS,
    ),
}
#: Every layer the machine runs over.
MACHINE_LAYERS = {**LAYERS, **STRESSED}

#: The quick profile: a fixed exploration, so a run is reproducible.
QUICK = settings(
    max_examples=10, stateful_step_count=50, deadline=None,
    derandomize=True, database=None,
    suppress_health_check=list(HealthCheck),
)


class Clock:
    """The machine's engine clock; only the clock rule moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@dataclass
class Entry:
    """A resident key in the model: its value and deadline."""

    value: object
    expires: Optional[float]

    def live(self, now: float) -> bool:
        return self.expires is None or now < self.expires


def last_log_time(directory: str) -> float:
    """The newest clock reading a durable directory carries: what a
    recovery continues its timeline from."""
    times = [0.0]
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        if name.startswith("wal-"):
            times.extend(record[-1] for record, _ in iter_wal(path))
        elif name.startswith("snapshot-"):
            times.append(read_snapshot(path)["log_time"])
    return max(times)


def shards_of(store) -> list:
    """Every :class:`CacheShard` beneath a composition, cluster nodes
    excluded."""
    if isinstance(store, CacheShard):
        return [store]
    if isinstance(store, AdaptiveKVCache):
        return list(store.shards)
    if isinstance(store, TieredKVCache):
        return [shard for tier in store.tiers for shard in shards_of(tier.store)]
    if isinstance(store, ClusterKVCache):
        return []
    return shards_of(store.cache)


def capacity_of(store) -> int:
    if isinstance(store, CacheShard):
        return store.capacity
    if isinstance(store, AdaptiveKVCache):
        return store.capacity_entries
    if isinstance(store, TieredKVCache):
        return sum(capacity_of(tier.store) for tier in store.tiers)
    if isinstance(store, ClusterKVCache):
        return sum(node.engine.capacity_entries
                   for node in store.nodes.values() if node.engine is not None)
    return capacity_of(store.cache)


class ServingMachine(RuleBasedStateMachine):
    """The model-checked run of one layer; see the module docstring."""

    def __init__(self, name: str):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="invariants-")
        self.clock = Clock()
        layer = MACHINE_LAYERS[name](pathlib.Path(self.root), self.clock)
        self.ttl_ok = name in TTL_LAYERS
        self.resilient = isinstance(layer, ResilientKVCache)
        inner = layer.cache if self.resilient else layer
        self.durable = isinstance(inner, PersistentKVCache)
        self.directory = inner.directory if self.durable else None
        self.tiered = isinstance(inner, TieredKVCache)
        far = inner.tiers[-1].store if self.tiered else inner
        self.cluster = far if isinstance(far, ClusterKVCache) else None
        #: Whether the ring's nodes evict, so acked writes may age out.
        self.ring_evicts = self.cluster is not None and any(
            node.engine.capacity_entries < len(KEYS)
            for node in self.cluster.nodes.values())
        self._install(layer)
        self.model = {}
        self.history = {key: set() for key in KEYS}
        #: Keys whose residency the model cannot tell (after a rebuild).
        self.loose = set()
        #: Cluster ledger: key -> newest acked version.
        self.acked = {}
        #: Cluster: (node id, key) -> the version that node last held.
        self.replicas = {}
        self.quarantined = set()
        self.crashed = False
        self.log_base = 0.0
        self.tokens = itertools.count()
        self.bound = None

    # -- plumbing -------------------------------------------------------

    def _install(self, layer) -> None:
        """Serve through ``layer``; a ladder gets no real sleeps and
        breakers on the machine's clock, so runs are reproducible."""
        if isinstance(layer, ResilientKVCache):
            layer.retry = RetryPolicy(backoff=0.0)
            layer.breakers = [CircuitBreaker(clock=self.clock)
                              for _ in layer.breakers]
        self.layer = layer

    @property
    def inner(self):
        """What the ladder (if any) serves through."""
        return self.layer.cache if self.resilient else self.layer

    @property
    def engine(self):
        """The engine beneath the layer; None for a shard or a ring."""
        if isinstance(self.layer, CacheShard) or self.cluster is not None:
            return None
        if isinstance(self.layer, AdaptiveKVCache):
            return self.layer
        return self.layer.engine

    def _shard(self, key):
        engine = self.engine
        if engine is None:
            return self.layer if isinstance(self.layer, CacheShard) else None
        return engine.shards[engine.shard_index(key)]

    def _index(self, key) -> int:
        engine = self.engine
        return engine.shard_index(key) if engine is not None else 0

    def _replaying(self, key) -> bool:
        store = self.inner
        return (isinstance(store, LiveRecoveringKVCache) and store.recovering
                and not store.key_serving(key))

    def _blocked(self, key) -> bool:
        return self.resilient and self._index(key) in self.quarantined

    def _hits(self) -> int:
        return sum(shard.hits for shard in shards_of(self.layer))

    def _token(self, key, kind):
        value = (kind, key, next(self.tokens))
        self.history[key].add(value)
        return value

    def _expiry(self, ttl):
        return None if ttl is None else self.clock.now + ttl

    def _touch(self, key) -> None:
        """Lazy expiry: an operation on an expired key drops it."""
        entry = self.model.get(key)
        if entry is not None and not entry.live(self.clock.now):
            del self.model[key]

    def _current(self, key):
        entry = self.model.get(key)
        if entry is None or not entry.live(self.clock.now):
            return MISS
        return entry.value

    def _set(self, key, value, ttl) -> None:
        self.model[key] = Entry(value, self._expiry(ttl))
        self.loose.discard(key)

    def _reference(self, key) -> None:
        if self.bound is not None:
            self.bound.get_or_compute(key, lambda k: k)

    def _acked_writes(self) -> int:
        return self.cluster.stats().acked_writes

    def _versions(self, key) -> list:
        """The versions of ``key`` the ring's live replicas hold."""
        held = (node.peek(key) for node in self.cluster.nodes.values())
        return [record[0] for found, record in held if found]

    def _ledger(self, key, acked_before: int) -> None:
        """Record the version the op just acked, if it acked one: a
        majority of the key's replicas hold it."""
        if not self.ring_evicts and self._acked_writes() != acked_before:
            held = self._versions(key)
            version = max(held)
            majority = self.cluster.replication // 2 + 1
            assert held.count(version) >= majority, (
                f"version {version} of {key!r} acked on {held}")
            self.acked[key] = version

    def _weak(self, key) -> bool:
        """Whether the model can only say which values the key held."""
        return (self.cluster is not None or key in self.loose
                or self._replaying(key))

    def _check_read(self, key, value, hits_before) -> None:
        """No wrong values, and no stale serve counted as a hit."""
        if self._weak(key):
            assert value is MISS or value in self.history[key], (key, value)
        else:
            assert value == self._current(key), (key, value)
        self._check_no_hit(key, value, self._current(key), hits_before)

    def _check_no_hit(self, key, value, current, hits_before) -> None:
        """A read answered with anything but ``current`` hit nothing."""
        if (self.cluster is None and key not in self.loose
                and value != current):
            assert self._hits() == hits_before, (
                f"a stale or missed read of {key!r} counted as a hit")

    # -- setup ------------------------------------------------------------

    @initialize(pair=st.sampled_from(PAIRS),
                shape=st.sampled_from(BOUND_SHAPES))
    def boot_bound_engine(self, pair, shape):
        self.bound = bound_engine(*shape, pair)

    # -- requests ---------------------------------------------------------

    @precondition(lambda self: not self.crashed)
    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        self._reference(key)
        hits = self._hits()
        blocked, weak = self._blocked(key), self._weak(key)
        value = self.layer.get(key, MISS)
        if blocked:
            assert value is MISS
            return
        if not weak:
            self._touch(key)
        self._check_read(key, value, hits)

    @precondition(lambda self: not self.crashed)
    @rule(key=st.sampled_from(KEYS), ttl=st.sampled_from(TTLS))
    def put(self, key, ttl):
        self._reference(key)
        value = self._token(key, "put")
        ttl = ttl if self.ttl_ok else None
        blocked = self._blocked(key)
        if self.cluster is not None:
            acked = self._acked_writes()
            try:
                self.layer.put(key, value)
            except WriteQuorumError:
                return
            self._ledger(key, acked)
            return
        if ttl is None:
            self.layer.put(key, value)
        else:
            self.layer.put(key, value, ttl=ttl)
        if not blocked:
            self._touch(key)
            self._set(key, value, ttl)

    @precondition(lambda self: not self.crashed)
    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        blocked, replaying = self._blocked(key), self._replaying(key)
        removed = self.layer.delete(key)
        if self.cluster is not None:
            self.acked.pop(key, None)
            return
        if blocked:
            assert removed is False
            return
        self._touch(key)
        if replaying:
            assert removed is False  # residency is unknowable mid-replay
        elif key not in self.loose:
            assert bool(removed) == (key in self.model), key
        self.model.pop(key, None)
        self.loose.discard(key)

    @precondition(lambda self: not self.crashed)
    @rule(key=st.sampled_from(KEYS), fail=st.booleans(),
          slow=st.booleans(), ttl=st.sampled_from(TTLS))
    def get_or_compute(self, key, fail, slow, ttl):
        """A read-through; a ``slow`` loader takes a second, so the
        fill's deadline counts from after it."""
        self._reference(key)
        ttl = ttl if self.ttl_ok else None
        token = self._token(key, "loaded")

        def loader(_key):
            if fail:
                raise IOError("backend down")
            if slow:
                self.clock.now += 1.0
            return token

        hits = self._hits()
        blocked, weak = self._blocked(key), self._weak(key)
        stale = self.model.get(key)
        breaker_open = (self.resilient and not blocked
                        and self.layer.breakers[self._index(key)].state
                        == "open")
        acked = self._acked_writes() if self.cluster is not None else 0
        kwargs = {} if ttl is None else {"ttl": ttl}
        try:
            value = self.layer.get_or_compute(key, loader, **kwargs)
        except (IOError, LoaderUnavailable, RecoveryInProgress) as error:
            value = error
        if blocked:
            assert isinstance(value, LoaderUnavailable), value
            return
        if self.cluster is not None:
            self._ledger(key, acked)
        if weak:
            if not isinstance(value, Exception):
                self._check_read(key, value, hits)
                if value == token and self.cluster is None:
                    self._set(key, token, ttl)
            return
        self._touch(key)
        current = self._current(key)
        if current is not MISS:
            expected = current
        elif self.resilient and (fail or breaker_open):
            # The ladder's fallback: the expired entry, if resident.
            expected = stale.value if stale is not None else LoaderUnavailable
        elif fail:
            expected = IOError
        else:
            expected = token
        if isinstance(expected, type):
            assert isinstance(value, expected), (key, value)
            return
        assert value == expected, (key, value, expected)
        self._check_no_hit(key, value, current, hits)
        if value is token:
            self._set(key, token, ttl)

    @rule(step=st.sampled_from(STEPS))
    def advance_clock(self, step):
        self.clock.now += step
        if self.cluster is not None:
            # Breakers cool down on the ring's clock.
            self.cluster.clock.advance(step)

    # -- invariants -------------------------------------------------------

    @invariant()
    def acked_writes_survive(self):
        """Every serving shard holds exactly the model's entries; on
        a ring that never evicts, some live replica holds every acked
        version, and no replica goes back to an older version."""
        if self.crashed:
            return
        if self.cluster is not None:
            if self.ring_evicts:
                return  # RingRules.recover_node checks durable nodes
            for key, version in self.acked.items():
                held = self._versions(key)
                assert held and max(held) >= version, (
                    f"acked version {version} of {key!r} lost; held {held}")
            self._check_replicas()
            return
        for key in KEYS:
            if key in self.loose or self._replaying(key):
                continue
            entry = self.model.get(key)
            found, value = self._shard(key).peek_stale(key)
            assert found == (entry is not None), (key, found, entry)
            if entry is not None:
                assert value == entry.value, (key, value, entry.value)
                assert self._shard(key).contains(key) == entry.live(
                    self.clock.now), (key, entry)
        if self.tiered:
            near = self.inner.tiers[0].store
            for key in near.resident_keys():
                if key not in self.loose:
                    assert near.peek_stale(key)[1] == self._current(key), key

    def _check_replicas(self) -> None:
        """Versions only move forward on a replica that stays up."""
        for node_id, node in self.cluster.nodes.items():
            for key in KEYS:
                found, record = node.peek(key)
                if not found:
                    self.replicas.pop((node_id, key), None)
                    continue
                before = self.replicas.get((node_id, key), 0)
                assert record[0] >= before, (
                    f"{node_id} went back from version {before} of {key!r}"
                    f" to {record[0]}")
                self.replicas[node_id, key] = record[0]

    @invariant()
    def within_capacity(self):
        if self.crashed:
            return
        assert len(self.layer) <= capacity_of(self.layer)
        for shard in shards_of(self.layer):
            assert len(shard) <= shard.capacity

    @invariant()
    def two_x_bound(self):
        if self.bound is not None:
            report = engine_bound_report(self.bound)
            assert report.holds(), report.violations()

    def teardown(self):
        if not self.crashed and self.durable:
            self.inner.close()
        if self.cluster is not None:
            self.cluster.close()
        shutil.rmtree(self.root, ignore_errors=True)


class BoundRules(ServingMachine):
    """Layers without fault rules also feed the bound engine scan
    cycles. The bound engine does not depend on the layer; on a layer
    with fault rules the cycles would only thin out the faults."""

    def __init__(self, name: str):
        super().__init__(name)
        #: Names the never-seen keys of the scans.
        self.cold = itertools.count()

    @rule(hot=st.integers(1, 3), refs=st.integers(1, 3),
          scan=st.integers(1, 2), cycles=st.integers(1, 30))
    def scan_cycles(self, hot, refs, scan, cycles):
        """Only the bound engine: ``cycles`` times, reference the hot
        keys ``refs`` times each, then ``scan`` never-seen keys."""
        for _ in range(cycles):
            for key in KEYS[:hot] * refs:
                self._reference(key)
            for _ in range(scan):
                self._reference(("cold", next(self.cold)))


class CrashRules(ServingMachine):
    """Durable layers: crash, then recover stop-the-world or live."""

    @precondition(lambda self: not self.crashed)
    @rule(tear=st.sampled_from(TEARS))
    def crash(self, tear):
        """Die un-flushed; ``tear`` bytes of an in-flight record (one
        never acked) reach the newest WAL."""
        store = self.inner
        # Unless the crashed engine was itself still replaying,
        # recovery must rebuild it exactly, as it stood when its last
        # record was logged.
        self.crashed_state = None
        if not (isinstance(store, LiveRecoveringKVCache)
                and store.recovering):
            self.crashed_state = self._state(
                store.cache, last_log_time(self.directory) + self.log_base)
        store.abandon()
        if tear:
            frame = encode_record(("put", KEYS[0], "torn", None,
                                   self.clock.now))
            path = os.path.join(self.directory,
                                f"wal-{store.generation:08d}.log")
            with open(path, "ab") as handle:
                handle.write(frame[:tear])
        self.crashed = True

    def _state(self, engine, at: float) -> dict:
        """``engine.state_dict()`` read when the clock shows ``at``,
        less the degraded-serving counters, which no record carries."""
        now, self.clock.now = self.clock.now, at
        try:
            state = engine.state_dict()
        finally:
            self.clock.now = now
        for shard in state["shards"]:
            shard["counters"] = dict(shard["counters"], stale_hits=0,
                                     degraded=0)
        return state

    def _reopen(self, store, log_time: float) -> None:
        """Serve through the recovered ``store``; the model's deadlines
        continue on its timeline, which maps ``log_time`` (the newest
        persisted reading) to now."""
        base = self.clock.now - log_time
        shift = base - self.log_base
        self.log_base = base
        for entry in self.model.values():
            if entry.expires is not None:
                entry.expires += shift
        self.quarantined = set()
        self.crashed = False
        self._install(ResilientKVCache(store) if self.resilient else store)

    @precondition(lambda self: self.crashed)
    @rule(cadence=st.sampled_from(CADENCES))
    def recover_stop_the_world(self, cadence):
        log_time = last_log_time(self.directory)
        store = recover(self.directory, snapshot_every=cadence,
                        wal_flush_ops=1, clock=self.clock)
        if self.crashed_state is not None:
            assert self._state(store.cache, self.clock.now) == \
                self.crashed_state, "recovery did not rebuild the engine"
        self._reopen(store, log_time)

    @precondition(lambda self: self.crashed)
    @rule(cadence=st.sampled_from(CADENCES))
    def recover_live(self, cadence):
        log_time = last_log_time(self.directory)
        self._reopen(LiveRecoveringKVCache(
            self.directory, chunk_ops=1, snapshot_every=cadence,
            wal_flush_ops=1, clock=self.clock,
        ), log_time)

    @precondition(lambda self: not self.crashed
                  and any(self._replaying(key) for key in KEYS))
    @rule(data=st.data(), ttl=st.sampled_from(TTLS))
    def put_while_replaying(self, data, ttl):
        """A write to a shard still replaying: accepted, logged and
        deferred until the shard's older records have replayed."""
        self.put(data.draw(st.sampled_from(
            [key for key in KEYS if self._replaying(key)])), ttl)

    @precondition(lambda self: not self.crashed
                  and isinstance(self.inner, LiveRecoveringKVCache)
                  and self.inner.recovering)
    @rule(drain=st.booleans())
    def live_step(self, drain):
        """Replay one record, or all that remain (``finish``). Once
        the replay completes, the engine must be the one stop-the-world
        recovery builds from the same directory."""
        live = self.inner
        if drain:
            live.finish()
        else:
            live.step()
        if live.recovering:
            return
        copy = os.path.join(self.root, "copy")
        shutil.copytree(self.directory, copy)
        try:
            log_time = last_log_time(copy)
            reference = recover(copy, clock=self.clock)
            assert self._state(live.cache, log_time + self.log_base) == \
                self._state(reference.cache, self.clock.now), (
                    "live recovery did not converge to stop-the-world's")
            reference.abandon()
        finally:
            shutil.rmtree(copy)


class LadderRules(ServingMachine):
    """The resilient ladder: quarantine a shard, rebuild it empty
    (refused over a durable layer, whose log cannot carry it)."""

    @precondition(lambda self: not self.crashed)
    @rule(data=st.data())
    def quarantine(self, data):
        index = data.draw(st.integers(0, self.engine.num_shards - 1))
        self.layer.quarantine(index)
        self.quarantined.add(index)

    @precondition(lambda self: not self.crashed and bool(self.quarantined))
    @rule(data=st.data())
    def rebuild(self, data):
        index = data.draw(st.sampled_from(sorted(self.quarantined)))
        try:
            self.layer.rebuild(index)
        except ValueError:
            assert self.durable, "rebuild refused over a memory-only layer"
            return
        assert not self.durable, "an unlogged rebuild over a durable layer"
        for key in KEYS:
            if self._index(key) != index:
                continue
            self.model.pop(key, None)
            if self.tiered:
                # A near-tier copy may bring the key back.
                self.loose.add(key)
        self.quarantined.discard(index)


class RingRules(ServingMachine):
    """The cluster ring: kill, recover, partition and heal nodes, and
    make one flaky."""

    def __init__(self, name: str):
        super().__init__(name)
        #: A killed durable node's state, which it must recover.
        self.node_state = None

    def _nodes(self, *states):
        return [node_id for node_id, node in sorted(self.cluster.nodes.items())
                if node.status in states]

    @precondition(lambda self: not self._nodes("down", "rejoining"))
    @rule(data=st.data())
    def kill_node(self, data):
        """One node at a time is out (down, or rejoining until its
        refill lands): fewer than a write quorum's copies of an acked
        write. Its flakiness dies with the process. A durable node
        keeps its snapshot and WAL (every op on disk before it
        applies), so it must come back exactly as it died."""
        node_id = data.draw(st.sampled_from(self._nodes("up", "partitioned")))
        node = self.cluster.nodes[node_id]
        node.fault = None
        self.node_state = (node.engine.state_dict()
                           if node.directory is not None else None)
        node.crash()

    @precondition(lambda self: bool(self._nodes("down", "rejoining")))
    @rule()
    def recover_node(self):
        """The router's recovery: restart a down node (a durable one
        from disk, exactly as it crashed), refill it from its peers and
        admit it. A node that refuses a copy stays rejoining, and the
        next recovery retries its refill."""
        node_id = self._nodes("down", "rejoining")[0]
        node = self.cluster.nodes[node_id]
        if node.status == "down" and node.directory is not None:
            node.restart()
            assert node.engine.state_dict() == self.node_state, (
                f"node {node_id} did not recover the state it crashed with")
        try:
            self.cluster.recover(node_id)
        except RuntimeError:
            assert node.fault is not None, f"{node_id} refused no copy"
            assert node.status == "rejoining", node.status

    @precondition(lambda self: bool(self._nodes("up")))
    @rule(data=st.data())
    def partition_node(self, data):
        node_id = data.draw(st.sampled_from(self._nodes("up")))
        self.cluster.nodes[node_id].partition()

    @precondition(lambda self: bool(self._nodes("partitioned")))
    @rule(data=st.data())
    def heal_node(self, data):
        node_id = data.draw(st.sampled_from(self._nodes("partitioned")))
        self.cluster.nodes[node_id].heal()

    @precondition(lambda self: bool(self._nodes("up", "partitioned", "down")))
    @rule(data=st.data(), failures=st.integers(1, 3))
    def flaky_node(self, data, failures):
        """The next ``failures`` operations on one node raise, as a
        flaky replica's would; on a down node the fault outlives the
        restart and refuses the refill."""
        node_id = data.draw(st.sampled_from(
            self._nodes("up", "partitioned", "down")))
        left = [failures]

        def fault(op, key):
            if left[0] > 0:
                left[0] -= 1
                raise IOError(f"flaky {op} of {key!r}")

        self.cluster.nodes[node_id].fault = fault


@functools.lru_cache(maxsize=None)
def machine_for(name: str) -> type:
    """The machine for ``MACHINE_LAYERS[name]``: the request rules plus the
    fault rules its composition supports."""
    probe = ServingMachine(name)
    probe.teardown()
    rules = [kind for kind, supported in (
        (CrashRules, probe.durable),
        (LadderRules, probe.resilient),
        (RingRules, probe.cluster is not None),
    ) if supported]
    return type(f"Machine[{name}]", tuple(rules) or (BoundRules,), {})


def run(name: str, profile=QUICK) -> None:
    """Run the machine over ``MACHINE_LAYERS[name]`` under ``profile``."""
    machine = machine_for(name)
    run_state_machine_as_test(lambda: machine(name), settings=profile)
