"""One cache set: tags, valid and dirty bits."""

from __future__ import annotations

from typing import List, Optional

from repro.policies.base import SetView


class CacheSet(SetView):
    """Storage for a single set of a set-associative cache.

    Implements :class:`~repro.policies.base.SetView` so it can be handed
    directly to a replacement policy's ``victim`` method. Lookups use a
    tag->way dict, which keeps high-associativity simulation (the paper
    sweeps up to 32-way) O(1) per access.
    """

    __slots__ = ("_ways", "_tags", "_dirty", "_tag_to_way", "_free_hint")

    def __init__(self, ways: int):
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self._ways = ways
        self._tags: List[Optional[int]] = [None] * ways
        self._dirty = [False] * ways
        self._tag_to_way = {}
        # A lower bound on the lowest invalid way, so filling a wide set
        # does not rescan its valid prefix. Only ``evict`` (and a
        # restore) frees ways; the columnar kernel writes ``_tags`` but
        # only ever fills, which keeps the bound valid.
        self._free_hint = 0

    @property
    def ways(self) -> int:
        return self._ways

    def tag_at(self, way: int) -> Optional[int]:
        return self._tags[way]

    def valid_ways(self) -> List[int]:
        return [w for w, t in enumerate(self._tags) if t is not None]

    def occupancy(self) -> int:
        """Number of valid blocks."""
        return len(self._tag_to_way)

    def find(self, tag: int) -> Optional[int]:
        """Way holding ``tag``, or None."""
        return self._tag_to_way.get(tag)

    def free_way(self) -> Optional[int]:
        """Lowest-index invalid way, or None if the set is full."""
        if len(self._tag_to_way) == self._ways:
            return None
        way = self._free_hint = self._tags.index(None, self._free_hint)
        return way

    def install(self, way: int, tag: int, dirty: bool = False) -> None:
        """Place ``tag`` in ``way``, which must be empty."""
        if self._tags[way] is not None:
            raise ValueError(f"way {way} already holds tag {self._tags[way]:#x}")
        if tag in self._tag_to_way:
            raise ValueError(f"tag {tag:#x} already present in set")
        self._tags[way] = tag
        self._dirty[way] = dirty
        self._tag_to_way[tag] = way

    def evict(self, way: int) -> tuple:
        """Remove the block in ``way``; returns (tag, was_dirty)."""
        tag = self._tags[way]
        if tag is None:
            raise ValueError(f"cannot evict invalid way {way}")
        dirty = self._dirty[way]
        self._tags[way] = None
        self._dirty[way] = False
        del self._tag_to_way[tag]
        if way < self._free_hint:
            self._free_hint = way
        return tag, dirty

    def resident_tags(self) -> List[int]:
        """Tags of all valid blocks (unordered)."""
        return list(self._tag_to_way)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the per-way tags and dirty bits.

        The tag->way index is derived state and is rebuilt on load.
        """
        return {"tags": list(self._tags), "dirty": list(self._dirty)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._tags = [None if t is None else int(t) for t in state["tags"]]
        self._dirty = [bool(d) for d in state["dirty"]]
        self._tag_to_way = {
            tag: way for way, tag in enumerate(self._tags) if tag is not None
        }
        self._free_hint = 0
