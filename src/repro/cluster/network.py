"""The cluster's MVC split: a mutating controller, a read-only view.

Mirrors the network MVC discipline of simulators like Icarus: all
*mutations* of cluster state (node lifecycle, data movement) go
through :class:`ClusterController`; all *observation* (statuses,
preference lists, replica contents, merged stats) goes through
:class:`ClusterView`, which never fires a policy event or moves a
byte. Placement strategies, chaos campaigns and experiments talk to
these two objects rather than to nodes directly, so a future strategy
(different replication discipline, hinted handoff, load-aware
placement) plugs in without touching the node layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.node import ClusterNode
from repro.cluster.ring import HashRing
from repro.online.keyspace import key_fingerprint
from repro.online.stats import KVCacheStats


class ClusterView:
    """Read-only observation of a cluster (no side effects, ever).

    Args:
        ring: the cluster's consistent-hash ring.
        nodes: all known members (ring members and departed ones),
            keyed by node id. The view never mutates either.
    """

    def __init__(self, ring: HashRing, nodes: Dict[str, ClusterNode]):
        self._ring = ring
        self._nodes = nodes

    # -- membership and reachability -----------------------------------

    def node_ids(self) -> List[str]:
        """All known member ids, sorted."""
        return sorted(self._nodes)

    def status(self, node_id: str) -> str:
        """Lifecycle state of one member."""
        return self._nodes[node_id].status

    def is_reachable(self, node_id: str) -> bool:
        """Whether the router may send requests to this member."""
        return self._nodes[node_id].status == "up"

    def up_nodes(self) -> List[str]:
        """Ids of members currently serving."""
        return [nid for nid in sorted(self._nodes)
                if self._nodes[nid].status == "up"]

    # -- placement ------------------------------------------------------

    def owners(self, key, n: int) -> List[str]:
        """The key's preference list (reachability *not* applied)."""
        return self._ring.owners(key_fingerprint(key), n)

    def replica_map(self, key, n: Optional[int] = None
                    ) -> Dict[str, Optional[tuple]]:
        """Each owner's raw record for ``key`` (peek — no events).

        Args:
            key: the key to probe.
            n: preference-list length; default all ring members.

        Returns:
            ``{node_id: (version, value) or None}`` over the key's
            owners; a crashed owner maps to None.
        """
        n = len(self._ring) if n is None else n
        out: Dict[str, Optional[tuple]] = {}
        for nid in self.owners(key, n):
            found, record = self._nodes[nid].peek(key)
            out[nid] = record if found else None
        return out

    def divergent(self, key, n: Optional[int] = None) -> bool:
        """Whether the key's resident replicas disagree on version."""
        versions = {
            record[0]
            for record in self.replica_map(key, n).values()
            if record is not None
        }
        return len(versions) > 1

    def resident_keys(self) -> list:
        """Keys resident on any non-crashed member, each once.

        The order is fixed: members sorted by id, then each member's
        shard order, keeping a key's first occurrence. Sweeps over it
        (:meth:`ClusterController.rebalance`) therefore run the same
        in every process, whatever ``PYTHONHASHSEED`` is.
        """
        keys: dict = {}
        for nid in sorted(self._nodes):
            keys.update(dict.fromkeys(self._nodes[nid].resident_keys()))
        return list(keys)

    # -- statistics -----------------------------------------------------

    def node_stats(self) -> Dict[str, Optional[KVCacheStats]]:
        """Each member's merged engine counters (None when down)."""
        return {nid: self._nodes[nid].stats() for nid in sorted(self._nodes)}


class ClusterController:
    """All cluster mutations: node lifecycle and data movement.

    Args:
        nodes: the member table to administer.
        replication: replica count data movement maintains.
        view: the read-only view over the same nodes and their ring,
            used for observation.
    """

    def __init__(
        self,
        nodes: Dict[str, ClusterNode],
        replication: int,
        view: ClusterView,
    ):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self._nodes = nodes
        self.replication = replication
        self.view = view

    # -- lifecycle ------------------------------------------------------

    def kill(self, node_id: str) -> None:
        """Crash a node (process death; see
        :meth:`~repro.cluster.node.ClusterNode.crash`). The node stays
        on the ring — it is expected back, and routing around it is
        the router's job."""
        self._nodes[node_id].crash()

    def partition(self, node_id: str) -> None:
        """Cut a healthy node off from the router (it keeps serving
        nothing but keeps its state — the classic partition)."""
        node = self._nodes[node_id]
        if node.status != "up":
            raise RuntimeError(
                f"cannot partition node in state {node.status!r}"
            )
        node.status = "partitioned"

    def heal(self, node_id: str) -> None:
        """Reconnect a partitioned node."""
        node = self._nodes[node_id]
        if node.status != "partitioned":
            raise RuntimeError(f"cannot heal node in state {node.status!r}")
        node.status = "up"

    def recover(self, node_id: str, readmit: bool = True) -> int:
        """Bring a crashed node back from its own snapshot + WAL.

        The node rebuilds from its persistence directory (or restarts
        empty when memory-only), then — with ``readmit`` — a rebalance
        refills whatever the recovered prefix is missing from its
        peers' replicas before the node serves again. Ring membership
        never lapsed, so no ranges moved.

        Returns:
            Operations the recovered state covers (0 for an empty
            restart).
        """
        node = self._nodes[node_id]
        if node.status != "down":
            raise RuntimeError(f"cannot recover node in state {node.status!r}")
        if node.directory is not None:
            recovered = node.recover_from_disk()
        else:
            node.rebuild_empty()
            recovered = 0
        if readmit:
            self.readmit(node_id)
        return recovered

    def readmit(self, node_id: str) -> int:
        """Promote a rejoining node to serving, after peer catch-up.

        Returns:
            Keys copied onto the node by the catch-up rebalance.
        """
        node = self._nodes[node_id]
        if node.status != "rejoining":
            raise RuntimeError(f"cannot readmit node in state {node.status!r}")
        node.status = "up"
        return self.rebalance()

    # -- data movement --------------------------------------------------

    def _winner(self, key) -> Tuple[Optional[tuple], Dict[str, tuple]]:
        """Highest-version record for ``key`` on any non-down member,
        and each member's record, from one peek per member."""
        held: Dict[str, tuple] = {}
        for nid, node in self._nodes.items():
            found, record = node.peek(key)
            if found:
                held[nid] = record
        best = max(held.values(), key=lambda record: record[0], default=None)
        return best, held

    def rebalance(self) -> int:
        """Converge replica placement for every resident key.

        For every key, the highest-version record held by any
        non-crashed member is copied to each reachable owner that is
        missing it or holds an older version (judged by the same one
        peek per member). This is the sweep form of read-repair: it
        converges divergent replicas and refills a rejoined node.
        Non-owner holders keep their (correct, versioned) copies —
        they are cache entries and will age out under pressure.

        Returns:
            Replica copies written.
        """
        moved = 0
        for key in self.view.resident_keys():
            best, held = self._winner(key)
            if best is None:
                continue
            for nid in self.view.owners(key, self.replication):
                node = self._nodes[nid]
                if node.status != "up":
                    continue
                record = held.get(nid)
                if record is None or record[0] < best[0]:
                    try:
                        node.put(key, best[0], best[1])
                    except Exception:  # noqa: BLE001 — replica boundary
                        # A flaky or dying replica refuses the copy;
                        # the next sweep (or a read-repair) retries.
                        continue
                    moved += 1
        return moved
