"""The four end-to-end workloads.

Each workload builds one stack from the repository's public API, feeds
it inputs generated here from the seed, and times it from outside.
The protocol the runner drives:

* ``setup()`` generates inputs, builds the stack and warms it; it can
  run several times, and the last stack built is the one measured;
* ``measure(budget_s, tracer)`` runs the timed phase for about
  ``budget_s`` seconds and returns a :class:`Measurement`; the first
  call also records, after a fixed amount of work, the ``pins``
  (digests that a seed fully determines), the hit ratio and the peak
  memory;
* ``instrument(tracer)`` wraps the stack's layers with span recorders;
* ``close()`` runs end-of-run checks and releases files.

Every read is checked against a :class:`~metrics.Reference`, and every
failure lands in ``outcomes``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import time
from array import array
from contextlib import nullcontext
from typing import Dict, List, Optional

import numpy as np
from repro.cache.cache import SetAssociativeCache
from repro.cluster.cache import ClusterKVCache
from repro.cpu import timing
from repro.experiments.base import build_l2_policy, make_setup
from repro.online import persistence
from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import LiveRecoveringKVCache
from repro.online.resilience import ResilientKVCache
from repro.perf import kernel
from repro.perf.bench import SWEEP_SPECS
from repro.tiers.kv import client_local_topology
from repro.workloads import suite

from metrics import Outcomes, Reference, peak_rss_mb
from spans import REQUEST, Tracer

#: Methods of a replacement policy the shards drive per request.
POLICY_METHODS = ("observe", "on_hit", "victim", "on_fill", "on_invalidate")


@dataclasses.dataclass
class Measurement:
    """One timed phase: ``ops`` operations in ``wall_s`` seconds, with
    one latency sample per operation (per cell for sim-sweep). For the
    closed loops ``wall_s`` leaves out input generation.
    """

    ops: int
    wall_s: float
    latencies_ns: array
    details: dict


class OpStream:
    """Seeded YCSB-style operations: Zipf-ranked keys, read/update mix.

    Operation ``i`` is the same for a given seed however far and in
    whatever steps the stream is extended.
    """

    CHUNK = 4096

    def __init__(self, universe: int, alpha: float, read_fraction: float, seed: int):
        self.keys = [f"user{rank}" for rank in range(universe)]
        cdf = np.cumsum(np.arange(1, universe + 1, dtype=np.float64) ** -alpha)
        self._cdf = cdf / cdf[-1]
        self._read_fraction = read_fraction
        self._rng = np.random.default_rng(seed)
        self.op_keys: List[str] = []
        self.op_reads: List[bool] = []

    def ensure(self, count: int) -> None:
        """Generate operations until at least ``count`` exist."""
        keys = self.keys
        last = len(keys) - 1
        while len(self.op_keys) < count:
            ranks = np.searchsorted(self._cdf, self._rng.random(self.CHUNK), side="right")
            reads = self._rng.random(self.CHUNK) < self._read_fraction
            self.op_keys.extend(keys[min(rank, last)] for rank in ranks.tolist())
            self.op_reads.extend(reads.tolist())


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _patch_engine(tracer: Tracer, engine, methods=("get", "put")) -> None:
    """Wrap an online engine, each of its shards and each shard policy."""
    tracer.patch_methods(engine, "online.engine", methods)
    for shard in engine.shards:
        tracer.patch_methods(shard, "online.shard", methods + ("peek_stale",))
        tracer.patch_methods(shard.policy, "policy", POLICY_METHODS)


# ----------------------------------------------------------------------
# sim-sweep
# ----------------------------------------------------------------------


class SimSweep:
    """The Fig. 3/4 path: trace generation, the L1 filter, then the L2
    replay and timing model for LRU, LFU and Adaptive(lru, lfu)."""

    name = "sim-sweep"
    SIZES = {
        "full": {"programs": ["lucas", "art-1", "ammp", "mcf"], "refs": 30_000, "warm_refs": 2_000},
        "toy": {"programs": ["lucas", "mcf"], "refs": 2_000, "warm_refs": 600},
    }

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.pin_config = dict(self.size)
        self.pins: Optional[dict] = None
        self.hit_ratio = 0.0
        self.rss_mb = 0.0
        self.outcomes = Outcomes()
        self._cell_id = 0
        self._tracer: Optional[Tracer] = None

    def setup(self) -> None:
        self.outcomes = Outcomes()
        self.setup_cfg = make_setup("scaled")
        # One small cell per policy compiles the columnar kernel and
        # warms every code path before the clock starts.
        self._row(self.size["programs"][0], self.size["warm_refs"], None)

    def _row(self, program: str, refs: int, latencies) -> Dict[str, list]:
        """Build, compile and simulate one program under every policy."""
        setup = self.setup_cfg
        trace = suite.build_workload(program, setup.l2, accesses=refs, seed_offset=self.seed)
        compiled = timing.compile_workload(trace, setup.processor)
        cells = {}
        tracer = self._tracer
        for label, spec in SWEEP_SPECS.items():
            cache = SetAssociativeCache(setup.l2, build_l2_policy(setup.l2, spec["policy_kind"]))
            with tracer.scoped() if tracer else nullcontext():
                if tracer:
                    REQUEST.set(self._cell_id)
                    tracer.patch(cache, "access_decomposed", "cache.access_decomposed")
                start = time.perf_counter_ns()
                result = timing.simulate(compiled, cache, setup.processor)
                if latencies is not None:
                    latencies.append(time.perf_counter_ns() - start)
            self._cell_id += 1
            cells[f"{program}/{label}"] = [result.l2_accesses, result.l2_misses, result.cycles]
        return cells

    def measure(self, budget_s: float, tracer: Optional[Tracer] = None) -> Measurement:
        refs = self.size["refs"]
        programs = self.size["programs"]
        latencies = array("q")
        elapsed = sweep_ns = ops = sweeps = 0
        budget_ns = int(budget_s * 1e9)
        self._tracer = tracer
        # Whole sweeps only, so every program weighs alike; stop at the
        # sweep boundary nearest the budget.
        while not sweeps or elapsed + sweep_ns // 2 < budget_ns:
            start = time.perf_counter_ns()
            cells = {}
            for program in programs:
                cells.update(self._row(program, refs, latencies))
            sweep_ns = time.perf_counter_ns() - start
            elapsed += sweep_ns
            ops += refs * len(cells)
            sweeps += 1
            self._check(cells)
        self._tracer = None
        details = {"sweeps": sweeps, "refs_per_cell": refs}
        return Measurement(ops, elapsed / 1e9, latencies, details)

    def _check(self, cells: Dict[str, list]) -> None:
        """Every sweep must reproduce the first cell for cell."""
        self.outcomes.add_attempts(len(cells))
        if self.pins is None:
            self.pins = {key: cell[1:] for key, cell in cells.items()}
            accesses = sum(cell[0] for cell in cells.values())
            misses = sum(cell[1] for cell in cells.values())
            self.hit_ratio = (accesses - misses) / accesses
            self.rss_mb = peak_rss_mb()
            return
        for key, cell in cells.items():
            if cell[1:] != self.pins[key]:
                self.outcomes.add_failure("cell mismatch")

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch(suite, "build_workload", "workloads.build_workload")
        tracer.patch(timing, "compile_workload", "cpu.compile_workload")
        tracer.patch(timing, "simulate", "cpu.simulate")
        tracer.patch(kernel, "columnar_hit_stream", "perf.columnar_hit_stream")

    def close(self) -> dict:
        return {}


# ----------------------------------------------------------------------
# Closed-loop key-value workloads
# ----------------------------------------------------------------------


class _ClosedLoopKV:
    """One client that sends its next request when the last returns.

    Subclasses build ``self.stack`` in :meth:`_build`, which reads
    through ``get_or_compute(key, loader)`` and writes through ``put``,
    and define :meth:`_counters` (hits, lookups) and :meth:`_digest`.
    Each operation is timed alone with ``perf_counter_ns``; throughput
    is operations over the summed time of the slices that ran them,
    which leaves out input generation. Pin sizes are multiples of
    ``SLICE``.
    """

    SLICE = 500
    alpha = 0.99

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.pin_config = dict(self.size)
        self.workdir = workdir
        self.pins: Optional[dict] = None
        self.hit_ratio = 0.0
        self.rss_mb = 0.0
        self.outcomes = Outcomes()
        self.stack = None
        self._tracing = False

    def setup(self) -> None:
        self.stack = None
        self.outcomes = Outcomes()
        self.stream = OpStream(self.size["universe"], self.alpha, self.read_fraction, self.seed)
        self.reference = Reference(self.stream.keys)
        self.loader = self.reference.values.__getitem__
        self.next_op = 0
        self._build()
        self._drive(self.size["warm_ops"], array("q"))

    def read(self, key):
        return self.stack.get_or_compute(key, self.loader)

    def write(self, key, value) -> None:
        self.stack.put(key, value)

    def _drive(self, count: int, latencies: array) -> None:
        """Run the next ``count`` operations, checking every read."""
        stream = self.stream
        stream.ensure(self.next_op + count)
        keys, reads = stream.op_keys, stream.op_reads
        reference = self.reference
        values = reference.values
        read, write = self.read, self.write
        fail = self.outcomes.add_failure
        clock = time.perf_counter_ns
        append = latencies.append
        tracing = self._tracing
        for index in range(self.next_op, self.next_op + count):
            key = keys[index]
            if tracing:
                REQUEST.set(index)
            if reads[index]:
                expected = values[key]
                start = clock()
                try:
                    value = read(key)
                except Exception as error:  # noqa: BLE001 - counted, not fatal
                    append(clock() - start)
                    fail(type(error).__name__)
                    continue
                append(clock() - start)
                if value != expected:
                    fail("wrong value")
            else:
                value = reference.issue()
                start = clock()
                try:
                    write(key, value)
                except Exception as error:  # noqa: BLE001 - counted, not fatal
                    append(clock() - start)
                    fail(type(error).__name__)
                    continue
                append(clock() - start)
                reference.commit(key, value)
        self.next_op += count
        self.outcomes.add_attempts(count)

    def measure(self, budget_s: float, tracer: Optional[Tracer] = None) -> Measurement:
        latencies = array("q")
        budget_ns = int(budget_s * 1e9)
        ops = elapsed = 0
        self._tracing = tracer is not None
        hits0, lookups0 = self._counters()
        # Run past the budget if needed to reach the pinned prefix.
        while elapsed < budget_ns or self.pins is None:
            self.stream.ensure(self.next_op + self.SLICE)
            start = time.perf_counter_ns()
            self._drive(self.SLICE, latencies)
            elapsed += time.perf_counter_ns() - start
            ops += self.SLICE
            if self.pins is None and ops >= self.size["pin_ops"]:
                hits, lookups = self._counters()
                self.hit_ratio = (hits - hits0) / (lookups - lookups0)
                self.rss_mb = peak_rss_mb()
                self.pins = {
                    "digest": self._digest(),
                    "hits": hits - hits0,
                    "lookups": lookups - lookups0,
                }
        self._tracing = False
        return Measurement(ops, elapsed / 1e9, latencies, self._details())

    def _details(self) -> dict:
        return {}

    def close(self) -> dict:
        return {}


class KVZipfRead(_ClosedLoopKV):
    """YCSB-B through the resilient ladder to a sharded adaptive engine
    whose working set is far larger than its capacity."""

    name = "kv-zipf-read"
    read_fraction = 0.95
    SIZES = {
        "full": {
            "universe": 65_536,
            "capacity": 4_096,
            "shards": 8,
            "warm_ops": 20_000,
            "pin_ops": 20_000,
        },
        "toy": {
            "universe": 2_048,
            "capacity": 256,
            "shards": 4,
            "warm_ops": 1_000,
            "pin_ops": 1_000,
        },
    }

    def _build(self) -> None:
        self.engine = AdaptiveKVCache(
            capacity_entries=self.size["capacity"], num_shards=self.size["shards"]
        )
        self.stack = ResilientKVCache(self.engine)

    def _counters(self):
        stats = self.engine.stats()
        return stats.hits, stats.gets

    def _digest(self) -> str:
        return persistence.kv_stats_digest(self.engine.stats())

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch_methods(self.stack, "online.resilience", ("get_or_compute", "put"))
        _patch_engine(tracer, self.engine)
        tracer.replace(self, "loader", tracer.wrap("loader", self.loader))


def _state_digest(engine) -> str:
    """Digest of an engine's full state: entries, ways, counters and
    every byte of policy state."""
    return hashlib.sha256(pickle.dumps(engine.state_dict(), protocol=4)).hexdigest()


class KVDurableUpdate(KVZipfRead):
    """YCSB-A through the WAL-persisted engine on a working set that
    fits, then stop-the-world and live recovery of the directory.

    Every operation is logged and a snapshot is written every
    ``snapshot_every`` logged operations.
    """

    name = "kv-durable-update"
    read_fraction = 0.5
    SIZES = {
        "full": {
            "universe": 2_048,
            "capacity": 4_096,
            "shards": 8,
            "wal_flush_ops": 64,
            "snapshot_every": 100_000,
            "warm_ops": 10_000,
            "pin_ops": 20_000,
        },
        "toy": {
            "universe": 128,
            "capacity": 256,
            "shards": 4,
            "wal_flush_ops": 16,
            "snapshot_every": 1_000,
            "warm_ops": 500,
            "pin_ops": 1_000,
        },
    }

    def setup(self) -> None:
        self.directory = os.path.join(self.workdir, "durable")
        if self.stack is not None:
            self.stack.close()
        if os.path.isdir(self.directory):
            shutil.rmtree(self.directory)
        super().setup()

    def _build(self) -> None:
        self.engine = AdaptiveKVCache(
            capacity_entries=self.size["capacity"], num_shards=self.size["shards"]
        )
        self.stack = persistence.PersistentKVCache(
            self.engine,
            self.directory,
            snapshot_every=self.size["snapshot_every"],
            wal_flush_ops=self.size["wal_flush_ops"],
        )

    def _details(self) -> dict:
        return {"snapshots_taken": self.stack.snapshots_taken}

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch_methods(self.stack, "online.persistence", ("get_or_compute", "put"))
        _patch_engine(tracer, self.engine, ("get_or_compute", "put"))
        tracer.patch(os, "fsync", "os.fsync")
        tracer.patch(persistence, "write_snapshot", "online.persistence.write_snapshot")
        tracer.patch(persistence, "encode_record", "online.persistence.encode_record")
        encode = persistence.encode_record

        def counted(op):
            record = encode(op)
            tracer.count("persistence.wal_bytes", len(record))
            return record

        tracer.replace(persistence, "encode_record", counted)
        tracer.replace(self, "loader", tracer.wrap("loader", self.loader))

    def close(self) -> dict:
        """Recover the directory both ways; each must reproduce the
        engine as it was at close."""
        expected = _state_digest(self.engine)
        self.stack.close()
        self.stack = None
        details = {}
        for label, reopen in (
            ("recover_s", lambda: persistence.recover(self.directory)),
            ("live_finish_s", lambda: _finished(LiveRecoveringKVCache(self.directory))),
        ):
            start = time.perf_counter()
            recovered = reopen()
            details[label] = time.perf_counter() - start
            self.outcomes.add_attempts()
            if _state_digest(recovered.cache) != expected:
                self.outcomes.add_failure("recovery digest mismatch")
            recovered.close()
        shutil.rmtree(self.directory)
        return details


def _finished(live):
    live.finish()
    return live


class KVClusterTiered(_ClosedLoopKV):
    """YCSB-B through a client-local shard over a three-replica ring of
    LRU nodes: routing, quorum writes, read-repair and the tier walk."""

    name = "kv-cluster-tiered"
    read_fraction = 0.95
    SIZES = {
        "full": {
            "universe": 16_384,
            "nodes": 3,
            "replication": 3,
            "capacity_per_node": 2_048,
            "local": 256,
            "warm_ops": 10_000,
            "pin_ops": 20_000,
        },
        "toy": {
            "universe": 1_024,
            "nodes": 3,
            "replication": 3,
            "capacity_per_node": 128,
            "local": 16,
            "warm_ops": 500,
            "pin_ops": 1_000,
        },
    }

    def _build(self) -> None:
        self.cluster = ClusterKVCache(
            num_nodes=self.size["nodes"],
            replication=self.size["replication"],
            capacity_per_node=self.size["capacity_per_node"],
            policy="lru",
        )
        self.stack = client_local_topology(
            self.cluster,
            local_capacity=self.size["local"],
            cluster_capacity=self.size["capacity_per_node"],
        )

    def _counters(self):
        stats = self.stack.stats()
        return stats["tier_hits"], stats["gets"]

    def _digest(self) -> str:
        return _sha256(
            {"tiers": self.stack.stats(), "cluster": dataclasses.asdict(self.cluster.stats())}
        )

    def _details(self) -> dict:
        stats = self.cluster.stats()
        tiers = self.stack.stats()
        ops = self.next_op
        return {
            "near_hit_ratio": tiers["serves"]["local"] / tiers["gets"],
            "read_repairs_per_op": stats.read_repairs / ops,
            "hedged_reads_per_op": stats.hedged_reads / ops,
            "failed_writes_per_op": stats.failed_writes / ops,
        }

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch_methods(self.stack, "tiers", ("fetch", "put"))
        tracer.patch_methods(self.stack.tiers[0].store, "tiers.local", ("get", "put"))
        tracer.patch_methods(self.cluster, "cluster", ("get", "put", "delete"))
        tracer.patch(self.cluster.view, "owners", "cluster.route")
        for node in self.cluster.nodes.values():
            tracer.patch_methods(node, "cluster.node", ("get", "put", "peek"))
            _patch_engine(tracer, node.engine)
        tracer.replace(self, "loader", tracer.wrap("loader", self.loader))


WORKLOADS = {
    cls.name: cls
    for cls in (SimSweep, KVZipfRead, KVDurableUpdate, KVClusterTiered)
}
