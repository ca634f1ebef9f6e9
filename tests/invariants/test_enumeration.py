"""Every crash point of a short durable run, enumerated.

One fixed run of mixed requests (TTLs, expiry, evictions, misses
filled by a loader) writes a ~50-record WAL. A crash can leave that log
cut at any byte: at each record boundary, or anywhere inside a record
(a torn append), or in the middle of a snapshot rotation. For every
such point, both stop-the-world :func:`recover` and
:class:`LiveRecoveringKVCache` must rebuild exactly the engine that the
surviving prefix of requests built: the same ``state_dict()``, entries,
deadlines, counters and policy state.
"""

import os
import shutil

import pytest

from repro.online import persistence
from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import LiveRecoveringKVCache
from repro.online.persistence import PersistentKVCache, recover
from tests.invariants.machine import Clock

#: The run: ``(op, key)`` pairs; the clock moves 0.5 s every third op.
OPS = [
    (("put", "goc", "get", "get", "del", "goc", "put")[i % 7], (i * 5) % 9)
    for i in range(50)
]


def _engine(clock):
    return AdaptiveKVCache(capacity_entries=8, num_shards=2, policy="lru",
                           default_ttl=3.0, clock=clock)


def _apply(cache, op, key, index):
    if op == "put":
        cache.put(key, ("put", index), ttl=None if index % 4 else 1.0)
    elif op == "goc":
        cache.get_or_compute(key, lambda k: ("loaded", k, index))
    elif op == "get":
        cache.get(key)
    else:
        cache.delete(key)


def _time(index):
    """When request ``index`` of the run arrives."""
    return 0.5 * (index // 3)


def _drive(cache, clock, ops=OPS, after=None):
    """Run ``ops`` through ``cache``; ``after(p)`` sees each prefix."""
    for index, (op, key) in enumerate(ops):
        clock.now = _time(index)
        _apply(cache, op, key, index)
        if after is not None:
            after(index + 1)


def _references():
    """``state_dict()`` after each prefix of the run, read at the time
    of the prefix's last request (what a recovery continues from)."""
    clock = Clock()
    engine = _engine(clock)
    states = [engine.state_dict()]
    _drive(engine, clock, after=lambda p: states.append(engine.state_dict()))
    return states


def _reference_at(prefix, at):
    """``state_dict()`` after ``OPS[:prefix]``, read at time ``at``."""
    clock = Clock()
    engine = _engine(clock)
    _drive(engine, clock, OPS[:prefix])
    clock.now = at
    return engine.state_dict()


def _recovered(directory, live):
    """The engine each recovery path rebuilds from ``directory``."""
    clock = Clock()
    clock.now = 100.0  # downtime: skipped by both paths
    if live:
        store = LiveRecoveringKVCache(directory, chunk_ops=3, clock=clock)
        store.finish()
    else:
        store = recover(directory, clock=clock)
    state = store.cache.state_dict()
    store.abandon()
    return state


@pytest.fixture(scope="module")
def logged(tmp_path_factory):
    """The run's generation-0 directory and its WAL's record ends."""
    directory = str(tmp_path_factory.mktemp("logged"))
    clock = Clock()
    durable = PersistentKVCache(_engine(clock), directory,
                                snapshot_every=None, wal_flush_ops=1)
    _drive(durable, clock)
    durable.close()
    wal = os.path.join(directory, "wal-00000000.log")
    ends = [0] + [end for _, end in persistence.iter_wal(wal)]
    assert len(ends) == len(OPS) + 1
    with open(wal, "rb") as handle:
        return directory, handle.read(), ends


def _cuts(logged, tmp_path):
    """A copy of the logged directory and a function that cuts its WAL
    at a given size (recovery from a cut log writes nothing else)."""
    directory, blob, _ends = logged
    copy = str(tmp_path / "cut")
    shutil.copytree(directory, copy)
    wal = os.path.join(copy, "wal-00000000.log")

    def cut(size):
        with open(wal, "wb") as handle:
            handle.write(blob[:size])
        return copy

    return cut


@pytest.mark.parametrize("live", [False, True], ids=["stop-the-world", "live"])
def test_every_record_boundary(logged, live, tmp_path):
    references = _references()
    cut = _cuts(logged, tmp_path)
    for prefix, end in enumerate(logged[2]):
        assert _recovered(cut(end), live) == references[prefix], prefix


@pytest.mark.slow
@pytest.mark.parametrize("live", [False, True], ids=["stop-the-world", "live"])
def test_every_torn_byte(logged, live, tmp_path):
    """A cut inside record ``p + 1`` keeps exactly the first ``p``."""
    references = _references()
    cut = _cuts(logged, tmp_path)
    ends = logged[2]
    for prefix in range(len(OPS)):
        for size in range(ends[prefix] + 1, ends[prefix + 1]):
            assert _recovered(cut(size), live) == references[prefix], size


class _Killed(Exception):
    """The process dies here."""


#: Where a rotation can be cut: before the new snapshot is written,
#: between it and the manifest naming it, before the new WAL exists,
#: and before the old generations are pruned.
STAGES = ("snapshot", "manifest", "new wal", "prune")


def _kill_at(monkeypatch, stage, rotation):
    """Raise :class:`_Killed` at ``stage`` of the ``rotation``-th
    snapshot rotation (0 is the first after generation 0)."""
    seen = {"rotation": -1}

    def rotate(self, pending_op=False):
        seen["rotation"] += 1
        return original_rotate(self, pending_op)

    def armed():
        return seen["rotation"] == rotation

    def guard(name, function):
        def wrapper(*args, **kwargs):
            if armed() and stage == name:
                raise _Killed(stage)
            return function(*args, **kwargs)
        return wrapper

    original_rotate = PersistentKVCache._rotate_locked
    monkeypatch.setattr(PersistentKVCache, "_rotate_locked", rotate)
    monkeypatch.setattr(persistence, "write_snapshot",
                        guard("snapshot", persistence.write_snapshot))
    monkeypatch.setattr(persistence, "atomic_write_text",
                        guard("manifest", persistence.atomic_write_text))
    monkeypatch.setattr(PersistentKVCache, "_prune_locked",
                        guard("prune", PersistentKVCache._prune_locked))
    real_open = open

    def opener(path, mode="r", *args):
        if mode == "ab" and armed() and stage == "new wal":
            raise _Killed(stage)
        return real_open(path, mode, *args)

    monkeypatch.setattr(persistence, "open", opener, raising=False)


@pytest.mark.parametrize("stage", STAGES)
def test_every_rotation_stage(stage, tmp_path, monkeypatch):
    """A rotation every 7 records; a kill at ``stage`` of each one. The
    request that triggered it never returned, so recovery keeps what
    was logged before it, and the request too when it was a
    get-or-compute (its record was logged after it applied, so it
    landed in the old WAL)."""
    rotations = (len(OPS) - 1) // 7
    for rotation in range(rotations):
        directory = str(tmp_path / f"{stage}-{rotation}")
        with monkeypatch.context() as patch:
            _kill_at(patch, stage, rotation)
            clock = Clock()
            durable = PersistentKVCache(_engine(clock), directory,
                                        snapshot_every=7, wal_flush_ops=1)
            killed = []
            try:
                _drive(durable, clock, after=killed.append)
            except _Killed:
                pass
            else:
                raise AssertionError(f"no rotation {rotation} at {stage}")
        done = len(killed)
        kept = done + (OPS[done][0] == "goc")
        # Recovery continues from the newest reading it replays: the
        # new snapshot's once the manifest names it.
        committed = STAGES.index(stage) >= STAGES.index("new wal")
        expected = _reference_at(kept, _time(done if committed else kept - 1))
        for live in (False, True):
            assert _recovered(directory, live) == expected, (rotation, live)
