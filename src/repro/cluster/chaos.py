"""Node-level chaos against the cluster: kills, partitions, flakiness.

The single-node campaign (:mod:`repro.faults.online`) attacks one
process's persistence and loader; this module attacks the *cluster*:
members are SIGKILL-crashed mid-stream (their unflushed WAL window
dies), partitioned away from the router, or made flaky (a seeded
fraction of their requests raise), while a deterministic workload keeps
reading and writing through the router.

:func:`cluster_chaos_campaign` runs two phases and verdicts them in a
:class:`ClusterChaosReport`:

* **Pressure phase** — small per-node capacity (evictions happen),
  kills with later recovery, a partition with later heal, one flaky
  member, one tail-latency member (so hedged reads fire). Invariants:
  *zero wrong values* (every served ``(version, value)`` pair is
  exactly what was written at that version — staleness is legal, lies
  are not), read-repair + a final sweep leave no key's owner set
  divergent, every member's operation log replays decision-identically
  against the :mod:`repro.oracle` spec, and every member's final
  engine state is *byte-identical* to a fresh engine replaying its
  log, entries and policy state and counters all included (which is
  exactly the recovered-prefix guarantee: a crashed member's log was
  truncated to what its snapshot + WAL survived). The operation log
  is the campaign's own instrument: serving nodes keep none, so
  :func:`_build_cluster` arms it on every member before the first
  operation, and the checks refuse a member whose log is unarmed
  rather than read it as an empty stream.
* **Durability phase** — a no-eviction regime (capacity exceeds the
  keyspace) where one member is killed mid-stream and another
  partitioned. Invariant: with ``replication >= 2``, *no acked write
  is lost* — an ack means a write quorum applied it, at most one
  member died, so the latest acked version of every key must still be
  readable (at that version or newer) after recovery and rebalance.

Everything is seeded: the same :class:`ClusterChaosPlan` produces the
same kills, the same flaky faults, the same hedges and the same
verdict, run after run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.cache import ClusterKVCache, WriteQuorumError
from repro.cluster.latency import LatencyModel
from repro.faults.online import FlakyLoader
from repro.online.engine import AdaptiveKVCache
from repro.oracle.harness import (
    Divergence,
    ShardPair,
    build_shard_pair,
    run_differential,
)
from repro.utils.rng import DeterministicRNG


class FlakyReplica(FlakyLoader):
    """A node fault hook: seeded request failures with brown-out bursts.

    Attach as ``node.fault``; raises :class:`IOError` *before* the
    operation applies (so a failed request never reaches the engine or
    the op log, like a connection refused at the socket). The draws are
    :class:`~repro.faults.online.FlakyLoader`'s, without latency.

    Args:
        failure_rate: probability a request raises.
        burst: further consecutive failures after one fires.
        seed: deterministic seed.
    """

    def __init__(self, failure_rate: float = 0.1, burst: int = 0,
                 seed: int = 0):
        super().__init__(None, failure_rate=failure_rate, burst=burst,
                         seed=seed)

    def __call__(self, op: str, key) -> None:  # type: ignore[override]
        if self._decide(key, draw_latency=False)[1] is not None:
            raise IOError(f"injected replica failure on {op} {key!r}")


@dataclass(frozen=True)
class ClusterChaosPlan:
    """One cluster chaos campaign, as inert data.

    Attributes:
        ops: length of the pressure-phase operation stream.
        hot_keys: working-set size of the stream's hot region.
        num_nodes: cluster members.
        replication: replicas per key.
        write_quorum: acks per write (None = majority).
        read_fanout: replicas a read consults before declaring a miss.
        capacity_per_node: pressure-phase per-node capacity (small on
            purpose — evictions must happen).
        vnodes: virtual nodes per member.
        snapshot_every: per-node snapshot cadence.
        wal_flush_ops: per-node WAL flush cadence (a kill loses the
            unflushed window).
        kills: pressure-phase op indices at which a member is killed
            (the member is a seeded choice among up nodes); each
            recovers ``recover_after`` ops later.
        recover_after: ops between a kill and its recovery.
        partition_at: op index at which a member is partitioned
            (None = no partition).
        heal_after: ops between the partition and its heal.
        flaky_rate: request failure rate of the flaky member (node 1;
            0 disables).
        flaky_burst: brown-out burst length of the flaky member.
        spike_rate: tail-latency rate of the straggler member (node 2).
        hedge_after: latency budget that triggers hedged reads.
        durable_ops: length of the durability-phase stream.
        durable_kill_at: durability-phase op index of the kill.
        durable_partition_at: durability-phase op index of the
            partition (healed before the final check).
        put_rate: fraction of stream operations that are writes.
        seed: master seed for streams, choices and faults.
    """

    ops: int = 1200
    hot_keys: int = 96
    num_nodes: int = 5
    replication: int = 3
    write_quorum: Optional[int] = None
    read_fanout: int = 2
    capacity_per_node: int = 64
    vnodes: int = 32
    snapshot_every: int = 200
    wal_flush_ops: int = 4
    kills: Tuple[int, ...] = ()
    recover_after: int = 150
    partition_at: Optional[int] = None
    heal_after: int = 120
    flaky_rate: float = 0.05
    flaky_burst: int = 2
    spike_rate: float = 0.15
    hedge_after: float = 0.01
    durable_ops: int = 500
    durable_kill_at: int = 200
    durable_partition_at: int = 120
    put_rate: float = 0.4
    seed: int = 0

    @classmethod
    def seeded(cls, seed: int, num_kills: int = 2, **overrides
               ) -> "ClusterChaosPlan":
        """Place ``num_kills`` kills and one partition at seeded
        offsets, keeping every chaos window inside the stream."""
        base = cls(seed=seed, **overrides)
        rng = DeterministicRNG(seed).fork(101)
        latest = max(base.ops - base.recover_after - 1, 1)
        kills = set()
        while len(kills) < num_kills:
            kills.add(1 + rng.choice_index(latest))
        partition_at = 1 + rng.choice_index(
            max(base.ops - base.heal_after - 1, 1)
        )
        return cls(
            seed=seed,
            kills=tuple(sorted(kills)),
            partition_at=partition_at,
            **overrides,
        )


@dataclass
class ClusterChaosReport:
    """What a cluster campaign observed and whether invariants held.

    Attributes:
        ops: pressure-phase operations driven.
        kills: members killed (both phases).
        partitions: members partitioned (both phases).
        recoveries: crashed members recovered from snapshot + WAL.
        reads / read_hits: pressure-phase read traffic.
        wrong_values: served ``(version, value)`` pairs that were never
            written at that version (must be zero).
        stale_serves: reads that returned an older-than-latest-acked
            version (legal; counted for visibility).
        acked_writes / failed_writes: quorum outcomes, both phases.
        hedged_reads / hedge_wins / read_repairs: router behaviour
            under chaos (sanity floor: chaos should trigger some).
        swept: replica copies written by the final rebalance sweeps.
        divergent_after_repair: keys whose owner set still disagreed
            after the final sweep (must be zero).
        oracle_divergences: per-node decision divergences against the
            :mod:`repro.oracle` specs (must be empty).
        identity_mismatches: members whose final engine state was not
            byte-identical to a fresh replay of their op log (must be
            zero — this is the recovered-prefix guarantee).
        durable_acked: durability-phase acked writes.
        lost_acked_writes: acked writes unreadable at (or above) their
            acked version after recovery (must be zero at
            ``replication >= 2``).
    """

    ops: int = 0
    kills: int = 0
    partitions: int = 0
    recoveries: int = 0
    reads: int = 0
    read_hits: int = 0
    wrong_values: int = 0
    stale_serves: int = 0
    acked_writes: int = 0
    failed_writes: int = 0
    hedged_reads: int = 0
    hedge_wins: int = 0
    read_repairs: int = 0
    swept: int = 0
    divergent_after_repair: int = 0
    oracle_divergences: List[Divergence] = field(default_factory=list)
    identity_mismatches: int = 0
    durable_acked: int = 0
    lost_acked_writes: int = 0

    def ok(self) -> bool:
        """All invariants held (see the class docstring)."""
        return (
            self.wrong_values == 0
            and self.divergent_after_repair == 0
            and not self.oracle_divergences
            and self.identity_mismatches == 0
            and self.lost_acked_writes == 0
        )


def cluster_stream(plan: ClusterChaosPlan, ops: int, salt: int,
                   key_space: Optional[int] = None) -> List[tuple]:
    """A deterministic ``(op, key)`` stream: reads and writes mixed.

    Alternates a hot-region phase with a scan phase (like the
    single-node campaign's stream) so component policies disagree and
    the per-node oracle check is not vacuous; ``key_space`` bounds the
    keys (the durability phase needs a closed keyspace that fits in
    capacity).
    """
    rng = DeterministicRNG(plan.seed).fork(salt)
    stream: List[tuple] = []
    cold = plan.hot_keys
    phase = plan.hot_keys * 2
    for index in range(ops):
        if (index // phase) % 2 == 0:
            key = rng.choice_index(plan.hot_keys)
        elif index % 3 == 0:
            key = 0
        else:
            cold += 1
            key = cold
        if key_space is not None:
            key %= key_space
        op = "put" if rng.random() < plan.put_rate else "get"
        stream.append((op, key))
    return stream


def _build_cluster(plan: ClusterChaosPlan, directory: Optional[str],
                   capacity: int, seed_salt: int) -> ClusterKVCache:
    """The campaign's cluster: one straggler member, hedging armed,
    every member's operation log armed."""

    def latency_factory(index: int) -> LatencyModel:
        spike_rate = plan.spike_rate if index == 2 % plan.num_nodes else 0.0
        return LatencyModel(
            spike_rate=spike_rate, seed=plan.seed + seed_salt + 7919 * index
        )

    cluster = ClusterKVCache(
        num_nodes=plan.num_nodes,
        replication=plan.replication,
        write_quorum=plan.write_quorum,
        read_fanout=plan.read_fanout,
        capacity_per_node=capacity,
        vnodes=plan.vnodes,
        seed=plan.seed + seed_salt,
        directory=directory,
        snapshot_every=plan.snapshot_every,
        wal_flush_ops=plan.wal_flush_ops,
        hedge_after=plan.hedge_after,
        latency_factory=latency_factory,
    )
    for node in cluster.nodes.values():
        node.op_log = []
    return cluster


def _armed_log(node) -> List[tuple]:
    """The node's operation log; raises if it was never armed."""
    if node.op_log is None:
        raise RuntimeError(
            f"node {node.node_id!r} has no operation log to check; "
            "arm it (node.op_log = []) before its first operation"
        )
    return node.op_log


def _replay_reference(node) -> AdaptiveKVCache:
    """A fresh engine replaying the node's full operation log."""
    sentinel = object()
    reference = AdaptiveKVCache(**node.config)
    for op in _armed_log(node):
        if op[0] == "get":
            reference.get(op[1], sentinel)
        elif op[0] == "put":
            reference.put(op[1], op[2])
        else:
            reference.delete(op[1])
    return reference


def _check_node_identity(node, report: ClusterChaosReport) -> None:
    """Engine state must be identical to a fresh log replay.

    A member that crashed had its log truncated to the persisted
    prefix, so this equality *is* the snapshot + WAL recovery
    guarantee; for members that never crashed it is a plain
    determinism check. The comparison is deep structural equality of
    the full :meth:`~repro.online.engine.AdaptiveKVCache.state_dict`
    (entries, way order, counters, every byte of policy state) —
    *not* pickle bytes, which also encode interior object sharing
    (the replay shares record tuples with the op log; a recovered
    engine holds unpickled copies of the same values).
    """
    _armed_log(node)
    if node.engine is None:
        return
    reference = _replay_reference(node)
    if reference.state_dict() != node.engine.state_dict():
        report.identity_mismatches += 1


def _check_node_oracle(node, report: ClusterChaosReport) -> None:
    """The node's decision stream must match the reference spec, and
    the live node must hold exactly the keys the spec holds after it.

    The stream itself is replayed through a fresh shard; the closing
    residency check ties the verdict to the node that was logged, so
    an operation the node applied but never logged is caught here as
    well as by :func:`_check_node_identity`.
    """
    log = _armed_log(node)
    if node.engine is None:
        return
    config = node.config
    events = []
    for op in log:
        if op[0] == "get":
            events.append(("get", op[1]))
        elif op[0] == "put":
            events.append(("put", op[1]))
        else:
            events.append(("delete", op[1]))
    pair = build_shard_pair(
        config["policy"],
        capacity=config["capacity_entries"],
        seed=config["seed"],
        components=config["components"],
    )
    divergence = run_differential(pair, events, seed=config["seed"])
    if divergence is None:
        live = ShardPair(node.engine.shards[0], pair.spec, pair.label)
        detail = live.verify_state(None)
        if detail is not None:
            divergence = Divergence(
                step=len(events), event=("end",), engine=None, spec=None,
                label=pair.label, seed=config["seed"],
                detail=f"live node {node.node_id!r}: {detail}",
            )
    if divergence is not None:
        report.oracle_divergences.append(divergence)


def _restore_all(cluster: ClusterKVCache,
                 report: ClusterChaosReport) -> None:
    """Heal partitions and recover crashes, byte-checking each member
    as it comes back (before peer catch-up muddies the waters)."""
    controller, view = cluster.controller, cluster.view
    for node_id in view.node_ids():
        if view.status(node_id) == "partitioned":
            controller.heal(node_id)
    for node_id in view.node_ids():
        if view.status(node_id) == "down":
            controller.recover(node_id, readmit=False)
            report.recoveries += 1
            _check_node_identity(cluster.nodes[node_id], report)
            controller.readmit(node_id)


def _pressure_phase(plan: ClusterChaosPlan, directory: Optional[str],
                    report: ClusterChaosReport) -> None:
    """Chaos under eviction pressure: integrity and convergence."""
    cluster = _build_cluster(plan, directory, plan.capacity_per_node,
                             seed_salt=0)
    if plan.flaky_rate > 0 and plan.num_nodes > 1:
        cluster.nodes["n1"].fault = FlakyReplica(
            failure_rate=plan.flaky_rate, burst=plan.flaky_burst,
            seed=plan.seed + 13,
        )

    pick_rng = DeterministicRNG(plan.seed).fork(47)
    events: Dict[int, List[str]] = {}
    for kill_at in plan.kills:
        events.setdefault(kill_at, []).append("kill")
        events.setdefault(kill_at + plan.recover_after, []).append("recover")
    if plan.partition_at is not None:
        events.setdefault(plan.partition_at, []).append("partition")
        events.setdefault(
            plan.partition_at + plan.heal_after, []
        ).append("heal")

    written: Dict[int, Dict[int, tuple]] = {}
    latest_acked: Dict[int, int] = {}
    stream = cluster_stream(plan, plan.ops, salt=7)
    report.ops = len(stream)

    for index, (op, key) in enumerate(stream):
        for action in events.get(index, ()):
            _apply_event(cluster, action, pick_rng, report)
        if op == "put":
            value = ("v", key, index)
            try:
                version = cluster.put(key, value)
                latest_acked[key] = max(latest_acked.get(key, 0), version)
            except WriteQuorumError as error:
                version = error.version
            # Partial (un-acked) writes are legal replicas; their
            # versions are real and may legitimately be served.
            written.setdefault(key, {})[version] = value
        else:
            found, version, value, _consulted = cluster.get_details(key)
            if found:
                expected = written.get(key, {}).get(version)
                if expected is None or expected != value:
                    report.wrong_values += 1
                if version < latest_acked.get(key, 0):
                    report.stale_serves += 1

    for node in cluster.nodes.values():
        node.fault = None  # chaos is over; verdict sweeps run clean
    _restore_all(cluster, report)
    report.swept += cluster.repair_sweep()
    for key in sorted(cluster.view.resident_keys()):
        if cluster.view.divergent(key, plan.replication):
            report.divergent_after_repair += 1
    for node_id in cluster.view.node_ids():
        node = cluster.nodes[node_id]
        _check_node_identity(node, report)
        _check_node_oracle(node, report)

    stats = cluster.stats()
    report.reads = stats.reads
    report.read_hits = stats.read_hits
    report.acked_writes += stats.acked_writes
    report.failed_writes += stats.failed_writes
    report.hedged_reads += stats.hedged_reads
    report.hedge_wins += stats.hedge_wins
    report.read_repairs += stats.read_repairs
    cluster.close()


def _apply_event(cluster: ClusterKVCache, action: str,
                 rng: DeterministicRNG,
                 report: ClusterChaosReport) -> None:
    """One scheduled chaos action against a seeded member choice."""
    controller, view = cluster.controller, cluster.view
    if action == "kill":
        up = view.up_nodes()
        if len(up) > 1:
            controller.kill(up[rng.choice_index(len(up))])
            report.kills += 1
    elif action == "recover":
        for node_id in view.node_ids():
            if view.status(node_id) == "down":
                controller.recover(node_id)
                report.recoveries += 1
                break
    elif action == "partition":
        up = view.up_nodes()
        if len(up) > 1:
            controller.partition(up[rng.choice_index(len(up))])
            report.partitions += 1
    elif action == "heal":
        for node_id in view.node_ids():
            if view.status(node_id) == "partitioned":
                controller.heal(node_id)
                break
    else:  # pragma: no cover - plans only emit the four above
        raise ValueError(f"unknown chaos action {action!r}")


def _durability_phase(plan: ClusterChaosPlan, directory: Optional[str],
                      report: ClusterChaosReport) -> None:
    """No-eviction regime: acked writes must survive a single kill."""
    if plan.replication < 2 or plan.durable_ops <= 0:
        return
    key_space = plan.hot_keys
    cluster = _build_cluster(
        plan, directory, capacity=key_space + 8, seed_salt=1,
    )
    pick_rng = DeterministicRNG(plan.seed).fork(53)
    stream = cluster_stream(plan, plan.durable_ops, salt=11,
                            key_space=key_space)
    written: Dict[int, Dict[int, tuple]] = {}
    latest_acked: Dict[int, Tuple[int, tuple]] = {}

    for index, (op, key) in enumerate(stream):
        if index == plan.durable_partition_at:
            _apply_event(cluster, "partition", pick_rng, report)
        if index == plan.durable_kill_at:
            _apply_event(cluster, "kill", pick_rng, report)
        if op == "put":
            value = ("d", key, index)
            try:
                version = cluster.put(key, value)
                previous = latest_acked.get(key)
                if previous is None or version > previous[0]:
                    latest_acked[key] = (version, value)
                report.durable_acked += 1
            except WriteQuorumError as error:
                version = error.version
            written.setdefault(key, {})[version] = value
        else:
            found, version, value, _consulted = cluster.get_details(key)
            if found:
                expected = written.get(key, {}).get(version)
                if expected is None or expected != value:
                    report.wrong_values += 1

    _restore_all(cluster, report)
    report.swept += cluster.repair_sweep()

    for key, (acked_version, _value) in sorted(latest_acked.items()):
        found, version, value, _consulted = cluster.get_details(key)
        if not found or version < acked_version:
            report.lost_acked_writes += 1
            continue
        if written.get(key, {}).get(version) != value:
            report.wrong_values += 1

    stats = cluster.stats()
    report.acked_writes += stats.acked_writes
    report.failed_writes += stats.failed_writes
    report.read_repairs += stats.read_repairs
    cluster.close()


def cluster_chaos_campaign(plan: ClusterChaosPlan,
                           directory: Optional[str] = None
                           ) -> ClusterChaosReport:
    """Run both phases; see the module docstring for the model.

    Args:
        plan: the seeded campaign description.
        directory: persistence root; each phase's members live under
            their own subtree. ``None`` runs memory-only (crashed
            members then restart empty and rebuild from peers — the
            acked-write invariant still holds, via replication).

    Returns:
        The filled report; ``report.ok()`` is the verdict.
    """
    report = ClusterChaosReport()
    pressure_dir = durable_dir = None
    if directory is not None:
        pressure_dir = os.path.join(os.fspath(directory), "pressure")
        durable_dir = os.path.join(os.fspath(directory), "durable")
    _pressure_phase(plan, pressure_dir, report)
    _durability_phase(plan, durable_dir, report)
    return report
