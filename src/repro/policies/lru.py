"""Least-Recently-Used replacement, and the linked list it shares with
FIFO."""

from __future__ import annotations

from repro.policies.base import ReplacementPolicy, SetView


class _LinkedOrderPolicy(ReplacementPolicy):
    """An intrusive doubly-linked list of ways per set, evicting its head.

    The list is threaded through way indices with a sentinel node:
    fills move a way to the tail in O(1), and the victim of a full set
    is simply the list head — no per-eviction scan over stamps.
    Subclasses decide whether a hit moves the way too; that is the
    whole difference between LRU and FIFO.
    """

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        # Per set: next/prev way indices with sentinel index ``ways``.
        # prev == -1 marks a way not currently linked (never filled, or
        # invalidated). An empty list has the sentinel pointing at
        # itself.
        self._nxt = [[0] * (ways + 1) for _ in range(num_sets)]
        self._prv = [[0] * (ways + 1) for _ in range(num_sets)]
        for nxt, prv in zip(self._nxt, self._prv):
            nxt[ways] = ways
            prv[ways] = ways
            for way in range(ways):
                prv[way] = -1

    def _touch(self, set_index: int, way: int) -> None:
        """Move ``way`` to the tail, linking it if needed; IndexError
        for a slot outside the geometry."""
        # _check_slot's bounds, inline: it runs only to raise.
        if not (0 <= set_index < self.num_sets and 0 <= way < self.ways):
            self._check_slot(set_index, way)
        nxt = self._nxt[set_index]
        prv = self._prv[set_index]
        sentinel = self.ways
        before = prv[way]
        if before != -1:
            after = nxt[way]
            nxt[before] = after
            prv[after] = before
        tail = prv[sentinel]
        nxt[tail] = way
        prv[way] = tail
        nxt[way] = sentinel
        prv[sentinel] = way

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._touch(set_index, way)

    def on_invalidate(self, set_index: int, way: int) -> None:
        """Unlink an invalidated way so it cannot surface as a victim."""
        self._check_slot(set_index, way)
        prv = self._prv[set_index]
        before = prv[way]
        if before == -1:
            return
        nxt = self._nxt[set_index]
        after = nxt[way]
        nxt[before] = after
        prv[after] = before
        prv[way] = -1

    def victim(self, set_index: int, set_view: SetView) -> int:
        # The set is full, so every way is linked: evict the head.
        return self._nxt[set_index][self.ways]

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the per-set lists."""
        return {
            "nxt": [list(row) for row in self._nxt],
            "prv": [list(row) for row in self._prv],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._nxt = [list(map(int, row)) for row in state["nxt"]]
        self._prv = [list(map(int, row)) for row in state["prv"]]


class LRUPolicy(_LinkedOrderPolicy):
    """Classic LRU: evict the valid block touched longest ago.

    Hits and fills move a way to the MRU end of the list. The order
    produced is identical to the textbook monotonic-stamp formulation
    (ways sorted by last-touch time), which is what the differential
    oracle's LRU spec checks decision-for-decision.
    """

    name = "lru"

    #: A hit moves the way to the MRU end, as a fill does.
    on_hit = _LinkedOrderPolicy._touch
