"""Expected-Hit-Count replacement (EHC).

From the Belady-approximation line of work in PAPERS.md ("EHC:
expected-hit-count" — Vakil-Ghahani et al., *Cache Replacement Based on
Reuse-Distance Prediction*, and its expected-hit-count reformulation):
Belady evicts the block with the most distant reuse; EHC approximates
that with a learned per-block *expected hit count*. Each residency, the
policy counts the hits a block receives; when the block's lifetime ends
it folds that count into an exponential moving average keyed by tag
(``new = (old + observed) / 2``; the first completed lifetime seeds the
average directly). The victim is the block with the fewest *expected
remaining* hits — its tag's average minus the hits it has already
collected this residency — breaking ties in favour of the oldest fill,
like LFU. Blocks with no completed lifetime yet are granted an
optimistic expectation of one hit, so brand-new data gets a chance to
prove itself without outranking established high-reuse blocks.

The averages live in a per-set table keyed by tag and persist across
residencies — that memory of past lifetimes is the whole mechanism, and
also why scans (blocks whose lifetimes end with zero hits) are evicted
quickly on their second appearance. The table is unbounded, as in the
reference spec; at reproduction scale the per-set tag universe is
small. Halving uses exact binary-float arithmetic, so the executable
spec (:class:`repro.oracle.spec.SpecEHC`) reproduces the values
bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.policies.base import ReplacementPolicy, SetView

#: Expected hits granted to a tag with no completed lifetime yet.
NEW_TAG_EXPECTATION = 1.0


class EHCPolicy(ReplacementPolicy):
    """Expected-hit-count replacement (Belady approximation family)."""

    name = "ehc"

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self._hits = [[0] * ways for _ in range(num_sets)]
        self._tag: List[List[Optional[int]]] = [
            [None] * ways for _ in range(num_sets)
        ]
        self._ema: List[Dict[int, float]] = [dict() for _ in range(num_sets)]
        self._clock = 0
        self._fill_stamp = [[0] * ways for _ in range(num_sets)]

    def _finalize(self, set_index: int, way: int) -> None:
        """Fold the ending residency's hit count into the tag's EMA."""
        tag = self._tag[set_index][way]
        if tag is None:
            return
        observed = float(self._hits[set_index][way])
        ema = self._ema[set_index]
        previous = ema.get(tag)
        ema[tag] = observed if previous is None else (previous + observed) / 2
        self._tag[set_index][way] = None

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        self._hits[set_index][way] += 1

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._check_slot(set_index, way)
        # A replacement fill ends the previous resident's lifetime.
        self._finalize(set_index, way)
        self._tag[set_index][way] = tag
        self._hits[set_index][way] = 0
        self._clock += 1
        self._fill_stamp[set_index][way] = self._clock

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        self._finalize(set_index, way)

    def victim(self, set_index: int, set_view: SetView) -> int:
        hits = self._hits[set_index]
        tags = self._tag[set_index]
        stamps = self._fill_stamp[set_index]
        ema = self._ema[set_index]
        get = ema.get
        # The set is full: stamps are globally unique, so the tuple min
        # never falls through to the way index.
        best_way = 0
        best_key = None
        for way in range(self.ways):
            key = (get(tags[way], NEW_TAG_EXPECTATION) - hits[way],
                   stamps[way])
            if best_key is None or key < best_key:
                best_key = key
                best_way = way
        return best_way

    def state_dict(self) -> dict:
        """JSON-serializable snapshot (EMA tables as [tag, value] pairs
        so integer tag keys survive a JSON round-trip)."""
        return {
            "hits": [list(row) for row in self._hits],
            "tag": [list(row) for row in self._tag],
            "ema": [sorted(table.items()) for table in self._ema],
            "clock": self._clock,
            "fill_stamp": [list(row) for row in self._fill_stamp],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._hits = [list(map(int, row)) for row in state["hits"]]
        self._tag = [
            [None if t is None else int(t) for t in row]
            for row in state["tag"]
        ]
        self._ema = [
            {int(tag): float(value) for tag, value in table}
            for table in state["ema"]
        ]
        self._clock = int(state["clock"])
        self._fill_stamp = [list(map(int, row)) for row in state["fill_stamp"]]
