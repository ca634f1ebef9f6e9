"""Finite store buffer with write combining.

Out-of-order processors retire stores into a store buffer that drains
into the L2; when it fills, retirement — and soon the whole core —
stalls. The paper modified MASE precisely because the original
"effectively assumed an infinite number of store buffers", and Figure
10 shows the adaptive benefit as a function of buffer capacity, so this
component matters for reproducing the CPI results.
"""

from __future__ import annotations

import heapq
from typing import Optional


class StoreBuffer:
    """Tracks occupancy of a ``capacity``-entry store buffer over time.

    Each entry holds one outstanding write (a store miss being filled or
    a writeback) until its L2/memory transaction completes. Writes to a
    line that already has an in-flight entry are combined and consume no
    new entry.

    Drains complete independently, modelling a banked memory system:
    at the synthetic suite's miss intensities a single shared write
    channel saturates and masks replacement effects (see
    docs/timing-model.md).

    Args:
        capacity: number of entries.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._completions = []  # heap of (completion_time, line)
        self._inflight_lines = {}  # line -> count of heap entries
        self.pushes = 0
        self.combines = 0
        self.stalls = 0
        self.stall_cycles = 0.0

    def _drain(self, now: float) -> None:
        while self._completions and self._completions[0][0] <= now:
            _, line = heapq.heappop(self._completions)
            count = self._inflight_lines[line] - 1
            if count:
                self._inflight_lines[line] = count
            else:
                del self._inflight_lines[line]

    def occupancy(self, now: float) -> int:
        """Entries still in flight at time ``now``."""
        self._drain(now)
        return len(self._completions)

    def push(self, now: float, latency: float, line: Optional[int] = None) -> float:
        """Enter a write at time ``now`` that completes after ``latency``.

        Returns the (possibly later) time at which the core proceeds:
        ``now`` if an entry was free or the write combined, otherwise
        the completion time of the oldest in-flight entry.
        """
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.pushes += 1
        self._drain(now)
        if line is not None and line in self._inflight_lines:
            self.combines += 1
            return now
        if len(self._completions) >= self.capacity:
            wait_until, _ = self._completions[0]
            self.stalls += 1
            self.stall_cycles += wait_until - now
            now = wait_until
            self._drain(now)
        key = line if line is not None else -self.pushes
        heapq.heappush(self._completions, (now + latency, key))
        self._inflight_lines[key] = self._inflight_lines.get(key, 0) + 1
        return now
