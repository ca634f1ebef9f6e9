"""Mutation smoke test: the invariant machine must catch seeded bugs.

A state machine that never fails is worthless, so each case below
monkeypatches one serving bug into the stack and requires one of the
machine's assertions to fail on a layer that exercises it (a crash of
another kind does not count). The unmutated runs in
``test_machine.py`` are the control: the same machine passes there.
"""

import pytest
from hypothesis import Phase, settings

from repro.cluster import node
from repro.cluster.cache import ClusterKVCache
from repro.core.history import CounterHistory
from repro.online import persistence
from repro.online.liverecovery import LiveRecoveringKVCache
from repro.online.persistence import PersistentKVCache, _LogClock
from repro.online.shard import CacheShard
from tests.invariants.machine import QUICK, run

pytestmark = pytest.mark.faults

#: Stop at the first failure: no shrinking, the verdict is all we need.
HUNT = settings(QUICK, max_examples=500, stateful_step_count=50,
                phases=(Phase.explicit, Phase.generate))


def deferred_writes_applied_early(monkeypatch):
    """A write accepted for a replaying shard applies at once, before
    the shard's older records replay over it."""

    def defer(self, index, op, key, view):
        self._log(op)
        self._apply_locked(op)
        self._pending_view[index][key] = view
        self.recovery.deferred_writes += 1

    monkeypatch.setattr(LiveRecoveringKVCache, "_defer_locked", defer)


def unapplied_record_in_old_wal(monkeypatch):
    """At a rotation the triggering, not yet applied, record lands in
    the old WAL, behind the snapshot that does not include it."""
    rotate = PersistentKVCache._rotate_locked
    monkeypatch.setattr(PersistentKVCache, "_rotate_locked",
                        lambda self, pending_op=False: rotate(self))


def torn_tail_kept(monkeypatch):
    """Recovery leaves a torn tail in place and appends after it."""
    real_open = open

    class Untruncated:
        def __init__(self, handle):
            self.handle = handle

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def truncate(self, size=None):
            return size

    monkeypatch.setattr(persistence, "open",
                        lambda *args: Untruncated(real_open(*args)),
                        raising=False)


def quorum_of_one(monkeypatch):
    """A write counts as acked once a single replica applied it."""
    init = ClusterKVCache.__init__

    def one(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.write_quorum = 1

    monkeypatch.setattr(ClusterKVCache, "__init__", one)


def repair_to_lowest_version(monkeypatch):
    """Read-repair converges the owners on the lowest version held."""

    def repair(self, key, owners, replies, best):
        held = {node_id: self.nodes[node_id].peek(key) for node_id in owners}
        records = [record for found, record in held.values() if found]
        if not records:
            return
        lowest = min(records, key=lambda record: record[0])
        for node_id, (found, record) in held.items():
            if found and record != lowest and self.view.is_reachable(node_id):
                try:
                    self.nodes[node_id].put(key, *lowest)
                except IOError:
                    self.breakers[node_id].record_failure()

    monkeypatch.setattr(ClusterKVCache, "_read_repair", repair)


def stale_serve_counted_as_hit(monkeypatch):
    """The ladder's stale fallback also counts a hit."""
    record = CacheShard.record_stale_serve

    def counted(self):
        record(self)
        self.hits += 1

    monkeypatch.setattr(CacheShard, "record_stale_serve", counted)


def replay_restarts_ttl(monkeypatch):
    """Replay applies every record at recovery time, so a logged TTL
    starts again from there."""
    monkeypatch.setattr(_LogClock, "replay",
                        lambda self, log_time, apply, *args: apply(*args))


def rotating_record_unflushed(monkeypatch):
    """The record carried over a rotation waits for the next flush, so
    ``wal_flush_ops=1`` acks it before it is on disk."""

    def log(self, op, applied=False):
        self._last_frame = len(self._buffer)
        self._buffer += persistence.encode_record(op)
        self._ops_since_snapshot += 1
        if (self.snapshot_every is not None
                and self._ops_since_snapshot >= self.snapshot_every):
            self._rotate_locked(pending_op=not applied)
        elif self._ops_since_snapshot % self.wal_flush_ops == 0:
            self._flush_locked()

    monkeypatch.setattr(PersistentKVCache, "_log", log)


def node_recovery_ignores_wal(monkeypatch):
    """A cluster node recovers its newest snapshot and drops the WAL
    records written since."""
    recover = persistence.recover

    def snapshot_only(directory, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(persistence, "iter_wal", lambda path: iter(()))
            return recover(directory, **kwargs)

    monkeypatch.setattr(node, "recover", snapshot_only)


def selector_follows_the_worse(monkeypatch):
    """Algorithm 1's selector imitates the component with more
    misses, not fewer."""
    best = CounterHistory.best_component
    monkeypatch.setattr(CounterHistory, "best_component",
                        lambda self: 1 - best(self))


#: Mutation -> the layer whose machine must catch it.
MUTATIONS = {
    "deferred writes applied early": (deferred_writes_applied_early,
                                      "persistent"),
    "unapplied record in the old WAL": (unapplied_record_in_old_wal,
                                        "persistent"),
    "torn tail kept": (torn_tail_kept, "persistent"),
    "quorum of one": (quorum_of_one, "cluster"),
    "repair to the lowest version": (repair_to_lowest_version, "cluster"),
    "stale serve counted as a hit": (stale_serve_counted_as_hit,
                                     "resilient-engine"),
    "replay restarts the TTL": (replay_restarts_ttl, "persistent"),
    "rotating record unflushed": (rotating_record_unflushed, "persistent"),
    "node recovery ignores the WAL": (node_recovery_ignores_wal,
                                      "durable-ring"),
    "selector follows the worse component": (selector_follows_the_worse,
                                             "engine"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_machine_catches_mutation(mutation, monkeypatch):
    mutate, layer = MUTATIONS[mutation]
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        run(layer, HUNT)
