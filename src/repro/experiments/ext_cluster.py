"""Extension experiment: the replicated cluster under failures.

Replays a Zipf key stream (read-through ``get_or_compute``) against
:class:`~repro.cluster.cache.ClusterKVCache` at replication factors 1,
2 and 3 — once healthy, and once with one member SIGKILL-crashed
mid-stream and recovered at the three-quarter mark. The serving-shaped
claim under test: replication plus hedged reads hold hit rate and
availability through a member crash (at replication >= 2 the crash
is barely visible to clients), while replication factor trades
throughput for that resilience — the cluster analogue of the paper's
workload-shaping story, where the *workload* here is the failure
pattern.

Total entry capacity is held fixed across replication factors (each
member gets ``capacity / num_nodes``), so hit-rate differences come
from replication and failures, not from extra memory.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.cluster.cache import ClusterKVCache
from repro.cluster.latency import LatencyModel
from repro.experiments.base import ExperimentResult, Setup
from repro.experiments import checkpoint as checkpoint_mod
from repro.utils.rng import DeterministicRNG
from repro.workloads.keystreams import zipf_keys

#: Cluster members in every cell.
NUM_NODES = 5

#: Replication factors swept.
REPLICATION_FACTORS = (1, 2, 3)

#: Failure patterns swept: healthy, and one mid-stream member crash
#: (recovered at the 3/4 mark).
CHAOS_MODES = ("none", "kill")

#: Streams longer than this are truncated: every access fans out to
#: up to ``replication`` members, so cluster cells cost several times
#: an ext-online cell at the same length.
MAX_ACCESSES = 30_000


def _cluster(replication: int, capacity: int) -> ClusterKVCache:
    """One experiment cluster at seed 0: fixed total capacity, mild
    tail latency."""
    return ClusterKVCache(
        num_nodes=NUM_NODES,
        replication=replication,
        capacity_per_node=max(capacity // NUM_NODES, 8),
        hedge_after=0.01,
        latency_factory=lambda index: LatencyModel(
            spike_rate=0.1 if index == NUM_NODES - 1 else 0.0,
            seed=7919 * index,
        ),
    )


def replay_cluster(
    replication: int,
    chaos: str,
    keys: Sequence[str],
    capacity: int,
) -> Dict[str, float]:
    """Replay ``keys`` through one cluster; returns the metrics cell.

    With ``chaos="kill"`` a seeded member is crashed at the stream's
    midpoint and recovered (empty, then refilled by peers) at the
    three-quarter mark — the client keeps issuing requests throughout.
    """
    cluster = _cluster(replication, capacity)
    rng = DeterministicRNG(0).fork(17)
    kill_at = len(keys) // 2 if chaos == "kill" else None
    recover_at = (3 * len(keys)) // 4 if chaos == "kill" else None
    start = time.perf_counter()
    for index, key in enumerate(keys):
        if index == kill_at:
            up = [node_id for node_id, node in sorted(cluster.nodes.items())
                  if node.status == "up"]
            cluster.nodes[up[rng.choice_index(len(up))]].crash()
        elif index == recover_at:
            for node_id, node in sorted(cluster.nodes.items()):
                if node.status == "down":
                    cluster.recover(node_id)
        cluster.get_or_compute(key, lambda k: k)
    elapsed = time.perf_counter() - start
    stats = cluster.stats()
    cluster.close()
    return {
        "hits": stats.read_hits,
        "hit_pct": 100.0 * stats.read_hits / stats.reads
        if stats.reads else 0.0,
        "ops_per_sec": len(keys) / elapsed if elapsed > 0 else 0.0,
        "availability_pct": 100.0 * stats.availability,
        "hedged": stats.hedged_reads,
        "repairs": stats.read_repairs,
    }


#: The fields :func:`run` reads from a cell; a checkpointed cell
#: missing any of them is discarded and recomputed.
CELL = checkpoint_mod.dict_cell(
    "hits", "hit_pct", "ops_per_sec", "availability_pct", "hedged",
    "repairs",
)


def run(
    setup: Setup, checkpoint: Optional[checkpoint_mod.SweepCheckpoint]
) -> ExperimentResult:
    """Hit rate, throughput and availability per (replication, chaos),
    over :data:`REPLICATION_FACTORS`, at seed 0.

    Args:
        setup: experiment scale; total capacity is the L2's line
            count, split evenly over the members. Stream length is
            capped at :data:`MAX_ACCESSES`.
        checkpoint: restores and records each cell under
            ``cell/ext-cluster/...`` keys (the CLI's ``--resume``).
    """
    capacity = setup.l2.num_lines
    accesses = min(setup.accesses, MAX_ACCESSES)
    keys = zipf_keys(4 * capacity, accesses)

    result = ExperimentResult(
        experiment="ext-cluster",
        description="replicated cache cluster under failures "
        f"({NUM_NODES} nodes, {capacity} total entries, "
        f"{accesses} accesses)",
        headers=["replication", "chaos", "hits", "hit %", "ops/sec",
                 "avail %", "hedged", "repairs"],
    )
    table: Dict[int, Dict[str, Dict[str, float]]] = {}
    for replication in REPLICATION_FACTORS:
        table[replication] = {}
        for chaos in CHAOS_MODES:
            compute = lambda r=replication, c=chaos: replay_cluster(  # noqa: E731
                r, c, keys, capacity
            )
            cell = checkpoint_mod.checkpointed_cell(
                checkpoint, "ext-cluster", setup, (replication, chaos), compute, CELL
            )
            table[replication][chaos] = cell
            result.add_row(
                replication, chaos, cell["hits"], cell["hit_pct"],
                cell["ops_per_sec"], cell["availability_pct"],
                cell["hedged"], cell["repairs"],
            )

    for replication, cells in table.items():
        if "none" not in cells or "kill" not in cells:
            continue
        drop = cells["none"]["hit_pct"] - cells["kill"]["hit_pct"]
        result.add_note(
            f"replication={replication}: a mid-stream member crash costs "
            f"{drop:.1f} hit-points "
            f"(availability {cells['kill']['availability_pct']:.2f}%, "
            f"{int(cells['kill']['hedged'])} hedged reads)."
        )
    return result

