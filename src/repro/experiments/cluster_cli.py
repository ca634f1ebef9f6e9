"""The ``repro-experiments cluster`` verb: durable ledger run + verify.

The run mode streams a seeded get/put mix against a persistent
:class:`~repro.cluster.cache.ClusterKVCache` and appends a line to
``ACKS.jsonl`` *after* each write reaches its quorum (members run
``wal_flush_ops=1``, so an acked write is on >= quorum disks before
its ledger line exists). The verify mode is the other half of the CI
chaos smoke: after the run was SIGKILLed — and possibly had a member
crashed and another partitioned mid-stream — it recovers every member
directory and asserts no acked write was lost.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def run_cluster(args: argparse.Namespace) -> int:
    """Stream a durable replicated cluster, or verify one (--verify)."""
    from repro.cluster.cache import ClusterKVCache, WriteQuorumError
    from repro.utils.atomicio import atomic_write_text
    from repro.utils.rng import DeterministicRNG

    if not args.cluster_dir:
        print("cluster requires --cluster-dir DIR", file=sys.stderr)
        return 2
    if args.verify:
        return verify_cluster(args)
    if args.kill_node and args.kill_node == args.partition_node:
        print("cannot kill and partition the same member", file=sys.stderr)
        return 2

    cluster = ClusterKVCache(
        num_nodes=args.cluster_nodes,
        replication=args.replication,
        # A closed key space below capacity: acked writes cannot be
        # evicted, so the ledger invariant is pure durability.
        capacity_per_node=args.cluster_keys + 8,
        seed=args.seed,
        directory=args.cluster_dir,
        snapshot_every=200,
        wal_flush_ops=1,
        hedge_after=0.01,
    )
    for node_id in (args.kill_node, args.partition_node):
        if node_id is not None and node_id not in cluster.nodes:
            print(
                f"no member {node_id!r} (members: "
                f"{', '.join(sorted(cluster.nodes))})",
                file=sys.stderr,
            )
            cluster.close()
            return 2
    atomic_write_text(
        os.path.join(args.cluster_dir, "META.json"),
        json.dumps(
            dict(
                nodes=args.cluster_nodes,
                replication=args.replication,
                keys=args.cluster_keys,
                ops=args.cluster_ops,
                seed=args.seed,
            ),
            indent=1,
        ),
    )

    kill_at = args.cluster_ops // 2 if args.kill_node else None
    partition_at = args.cluster_ops // 3 if args.partition_node else None
    heal_at = (2 * args.cluster_ops) // 3 if args.partition_node else None
    rng = DeterministicRNG(args.seed).fork(29)
    acked = failed = 0
    ledger_path = os.path.join(args.cluster_dir, "ACKS.jsonl")
    with open(ledger_path, "a") as ledger:
        for index in range(args.cluster_ops):
            if index == kill_at:
                cluster.nodes[args.kill_node].crash()
                print(f"[{index}] killed {args.kill_node}")
            if index == partition_at:
                cluster.nodes[args.partition_node].partition()
                print(f"[{index}] partitioned {args.partition_node}")
            if index == heal_at:
                cluster.nodes[args.partition_node].heal()
                print(f"[{index}] healed {args.partition_node}")
            key = f"k{rng.choice_index(args.cluster_keys)}"
            if rng.random() < 0.5:
                value = f"v{index}"
                try:
                    version = cluster.put(key, value)
                except WriteQuorumError:
                    failed += 1
                else:
                    ledger.write(json.dumps(
                        {"key": key, "version": version, "value": value}
                    ) + "\n")
                    # The ledger must never claim durability the WALs
                    # don't have; it is fsynced per line, after the acks.
                    ledger.flush()
                    os.fsync(ledger.fileno())
                    acked += 1
            else:
                cluster.get(key)
    stats = cluster.stats()
    statuses = " ".join(
        f"{nid}={node.status}" for nid, node in sorted(cluster.nodes.items())
    )
    cluster.close()
    print(
        f"cluster: ops={args.cluster_ops} acked={acked} failed={failed} "
        f"hedged={stats.hedged_reads} repairs={stats.read_repairs} "
        f"availability={100.0 * stats.availability:.2f}%"
    )
    print(f"members: {statuses}")
    print(f"ledger: {ledger_path} ({acked} acked writes)")
    return 0


def verify_cluster(args: argparse.Namespace) -> int:
    """Recover all member directories; assert the ledger survives."""
    from repro.online.persistence import recover

    ledger_path = os.path.join(args.cluster_dir, "ACKS.jsonl")
    if not os.path.exists(ledger_path):
        print(f"verify: no ledger at {ledger_path}", file=sys.stderr)
        return 1
    latest = {}
    acked = 0
    with open(ledger_path) as handle:
        for line in handle:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail from a SIGKILL; the prefix is intact
            latest[entry["key"]] = (entry["version"], entry["value"])
            acked += 1

    # Highest version of each key across every recoverable member.
    best = {}
    members = 0
    for name in sorted(os.listdir(args.cluster_dir)):
        node_dir = os.path.join(args.cluster_dir, name)
        if not os.path.isdir(node_dir):
            continue
        try:
            store = recover(node_dir, wal_flush_ops=1)
        except Exception as exc:  # noqa: BLE001 - a dead replica is data
            print(f"verify: member {name}: unrecoverable ({exc})",
                  file=sys.stderr)
            continue
        members += 1
        for shard in store.cache.shards:
            for key in shard.resident_keys():
                found, record = shard.peek_stale(key)
                if found and (key not in best or record[0] > best[key][0]):
                    best[key] = record
        store.close()

    lost = []
    for key, (version, value) in sorted(latest.items()):
        record = best.get(key)
        if (record is None or record[0] < version
                or (record[0] == version and record[1] != value)):
            lost.append(key)
    print(
        f"verified: members={members} acked={acked} keys={len(latest)} "
        f"lost={len(lost)}"
    )
    if lost:
        print("lost acked writes: " + ", ".join(lost[:10]), file=sys.stderr)
        return 1
    return 0
