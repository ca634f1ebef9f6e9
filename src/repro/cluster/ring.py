"""Consistent-hash ring with virtual nodes.

The simulator shards *within* one engine by fingerprint high bits
(:func:`repro.online.keyspace.shard_routing`); the cluster shards
*across* nodes with a consistent-hash ring so that a membership change
moves only ~K/n keys instead of rehashing everything. Each member
contributes ``vnodes`` points to the ring (its virtual nodes), which
smooths the per-node load to within a few percent of uniform even for
small clusters; a key's *preference list* is the first N distinct members
clockwise from its fingerprint, which is where its N replicas live.

Ring points are themselves key fingerprints
(:func:`~repro.online.keyspace.key_fingerprint` of
``("vnode", node_id, index)``), so placement is deterministic across
processes — the same property the online engine relies on for
checkpoint/resume reproducibility.

Every fingerprint between two adjacent points shares one preference
order, so the ring walks each arc once: the first :meth:`HashRing.owners`
call on an arc memoizes its full distinct-owner order, later calls
slice it, and :meth:`HashRing.add_node` clears the memo.
"""

from __future__ import annotations

import bisect
from typing import Dict, List

from repro.online.keyspace import key_fingerprint

#: Default virtual nodes per member. 64 points per node keeps the
#: largest-to-smallest arc ratio low enough that chi-square balance
#: tests over Zipf streams pass comfortably at 3-16 nodes.
DEFAULT_VNODES = 64


class HashRing:
    """A consistent-hash ring mapping fingerprints to member nodes.

    Args:
        vnodes: virtual nodes (ring points) per member.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        # Sorted parallel arrays: point fingerprints and their owners.
        self._points: List[int] = []
        self._owners: List[str] = []
        self._members: set = set()
        # Arc index (bisect_right over the points) -> every member in
        # clockwise preference order from that arc; filled lazily.
        self._arcs: Dict[int, List[str]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_node(self, node_id: str) -> None:
        """Add a member's virtual nodes to the ring."""
        if node_id in self._members:
            raise ValueError(f"node {node_id!r} is already on the ring")
        self._members.add(node_id)
        self._arcs.clear()
        for index in range(self.vnodes):
            point = key_fingerprint(("vnode", node_id, index))
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, node_id)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._members

    def __len__(self) -> int:
        """Number of member nodes (not ring points)."""
        return len(self._members)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def owners(self, fingerprint: int, n: int = 1) -> List[str]:
        """The preference list: first ``n`` distinct members clockwise.

        Args:
            fingerprint: a 64-bit key fingerprint.
            n: replicas wanted; capped at the member count.

        Returns:
            Up to ``n`` distinct node ids, in preference order. Empty
            when the ring has no members.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        start = bisect.bisect_right(self._points, fingerprint)
        order = self._arcs.get(start)
        if order is None:
            order = self._arcs[start] = self._walk(start)
        return order[:n]

    def _walk(self, start: int) -> List[str]:
        """Every member once, clockwise from point index ``start``."""
        order: List[str] = []
        seen = set()
        total = len(self._points)
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
                if len(order) == len(self._members):
                    break
        return order
