"""Least-Frequently-Used replacement with saturating counters."""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.policies.base import ReplacementPolicy, SetView
from repro.utils.bitops import mask

#: Sets at least this wide pick full-set victims from a lazy heap in
#: O(log ways). Narrower ones (the simulator's 8-way sets) keep the
#: C-speed scan, which is as fast or faster at 8 ways; the measured
#: crossover is in docs/performance.md.
HEAP_MIN_WAYS = 16

#: A set's heap is dropped (and rebuilt on the next victim) once it
#: holds more than this many entries per way, bounding the stale ones.
_HEAP_SLACK = 4


class LFUPolicy(ReplacementPolicy):
    """In-cache LFU with per-way saturating frequency counters.

    The paper's simulated configuration (Table 1) uses 5-bit LFU counters,
    so counters saturate at 31 by default. A newly filled block starts at
    frequency 1; every hit increments (saturating). The victim is the
    valid block with the lowest count, breaking ties in favour of the
    oldest fill — this makes LFU deterministic and keeps single-use scan
    blocks (count 1) flowing through one way while frequently reused data
    is retained, the behaviour the paper highlights for media workloads.
    """

    name = "lfu"

    def __init__(self, num_sets: int, ways: int, counter_bits: int = 5):
        super().__init__(num_sets, ways)
        if counter_bits <= 0:
            raise ValueError(
                f"counter_bits must be positive, got {counter_bits}"
            )
        self.counter_bits = counter_bits
        self._max_count = mask(counter_bits)
        self._count = [[0] * ways for _ in range(num_sets)]
        self._clock = 0
        self._fill_stamp = [[0] * ways for _ in range(num_sets)]
        self._heap_limit = _HEAP_SLACK * ways
        self.drop_derived_state()

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
        counts = self._count[set_index]
        count = counts[way]
        if count < self._max_count:
            counts[way] = count + 1
            heaps = self._heaps
            if heaps is not None and heaps[set_index] is not None:
                self._push(set_index, (count + 1,
                                       self._fill_stamp[set_index][way], way))

    def on_fill(self, set_index: int, way: int, tag: int) -> None:
        self._check_slot(set_index, way)
        self._count[set_index][way] = 1
        self._clock += 1
        self._fill_stamp[set_index][way] = self._clock
        heaps = self._heaps
        if heaps is not None and heaps[set_index] is not None:
            self._push(set_index, (1, self._clock, way))

    def victim(self, set_index: int, set_view: SetView) -> int:
        counts = self._count[set_index]
        stamps = self._fill_stamp[set_index]
        if self._heaps is not None:
            return self._heap_victim(set_index, counts, stamps)
        # The set is full: tuple-compare in C. Fill stamps are globally
        # unique, so the comparison never falls through to the way
        # index and the result is the (count, stamp) minimum.
        _, _, way = min(zip(counts, stamps, range(self.ways)))
        return way

    def drop_derived_state(self) -> None:
        """Forget the victim heaps; the next full-set victim rebuilds
        its set's heap from the counters and fill stamps."""
        # Per set, a min-heap of (count, fill stamp, way) holding every
        # valid way's current triple plus stale ones (superseded by a
        # later hit or fill) that victim() pops lazily. None means
        # "rebuild on the next victim()"; narrow sets have no heaps.
        self._heaps = (
            [None] * self.num_sets if self.ways >= HEAP_MIN_WAYS else None
        )

    def _push(self, set_index: int, entry: tuple) -> None:
        heap = self._heaps[set_index]
        if len(heap) < self._heap_limit:
            heappush(heap, entry)
        else:
            self._heaps[set_index] = None

    def _heap_victim(self, set_index: int, counts, stamps) -> int:
        # Every way's current (count, stamp) is in the heap; an entry
        # whose stamp or count no longer matches its way is stale.
        # Fill stamps are unique, so the first current entry on top is
        # the (count, stamp) minimum the scan would return.
        heap = self._heaps[set_index]
        if heap is None:
            heap = list(zip(counts, stamps, range(self.ways)))
            heapify(heap)
            self._heaps[set_index] = heap
        while True:
            count, stamp, way = heap[0]
            if stamps[way] == stamp and counts[way] == count:
                return way
            heappop(heap)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of counters, clock and fill stamps
        (the victim heaps are derived and left out)."""
        return {
            "count": [list(row) for row in self._count],
            "clock": self._clock,
            "fill_stamp": [list(row) for row in self._fill_stamp],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._count = [list(map(int, row)) for row in state["count"]]
        self._clock = int(state["clock"])
        self._fill_stamp = [list(map(int, row)) for row in state["fill_stamp"]]
        self.drop_derived_state()
