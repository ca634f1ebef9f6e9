"""Branch predictors: bimodal, gshare, meta (tournament), and a BTB.

Table 1 specifies a 16 KB gshare / 16 KB bimodal / 16 KB meta
combination with a 4K-entry 4-way BTB. Mispredictions are a
policy-independent component of CPI that the compile phase of the
timing model accounts once per workload.
"""

from __future__ import annotations

from repro.utils.bitops import is_power_of_two

#: Global-history bits gshare XORs into its index.
HISTORY_BITS = 12


class _CounterTable:
    """A table of 2-bit saturating counters."""

    def __init__(self, entries: int, init: int = 1):
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self._mask = entries - 1
        self._table = [init] * entries

    def index(self, value: int) -> int:
        return value & self._mask

    def predict(self, idx: int) -> bool:
        return self._table[idx] >= 2

    def update(self, idx: int, taken: bool) -> None:
        counter = self._table[idx]
        if taken:
            if counter < 3:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1


class BimodalPredictor:
    """PC-indexed table of 2-bit counters."""

    def __init__(self, entries: int = 64 * 1024):
        self._counters = _CounterTable(entries)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._counters.predict(self._counters.index(pc >> 2))

    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome of the branch at ``pc``."""
        self._counters.update(self._counters.index(pc >> 2), taken)


class GsharePredictor:
    """Global-history predictor: PC XOR history indexes the counters."""

    def __init__(self, entries: int = 64 * 1024):
        self._counters = _CounterTable(entries)
        self._history = 0
        self._history_mask = (1 << HISTORY_BITS) - 1

    def _index(self, pc: int) -> int:
        return self._counters.index((pc >> 2) ^ self._history)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._counters.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        """Train counters and shift the outcome into global history."""
        self._counters.update(self._index(pc), taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class MetaPredictor:
    """Tournament predictor choosing between bimodal and gshare per PC.

    The meta table counts which component has been more accurate for
    each PC; prediction follows the currently favoured component.
    """

    def __init__(self, entries: int = 64 * 1024):
        self.bimodal = BimodalPredictor(entries)
        self.gshare = GsharePredictor(entries)
        self._meta = _CounterTable(entries, init=2)  # slight gshare bias
        self.predictions = 0
        self.mispredictions = 0

    def update(self, pc: int, taken: bool) -> bool:
        """Record the outcome; returns True if the prediction was correct."""
        bim = self.bimodal.predict(pc)
        gsh = self.gshare.predict(pc)
        idx = self._meta.index(pc >> 2)
        predicted = gsh if self._meta.predict(idx) else bim
        if bim != gsh:
            self._meta.update(idx, taken == gsh)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)
        self.predictions += 1
        correct = predicted == taken
        if not correct:
            self.mispredictions += 1
        return correct


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement.

    A taken branch whose target is absent from the BTB costs a small
    fetch-redirect penalty even when its direction was predicted
    correctly.
    """

    def __init__(self, entries: int = 4096, ways: int = 4):
        if ways <= 0 or entries % ways != 0:
            raise ValueError("entries must be a positive multiple of ways")
        self._num_sets = entries // ways
        if not is_power_of_two(self._num_sets):
            raise ValueError("entries/ways must be a power of two")
        self._ways = ways
        self._sets = [dict() for _ in range(self._num_sets)]
        self._clock = 0
        self.lookups = 0
        self.misses = 0

    def lookup_update(self, pc: int) -> bool:
        """Probe for ``pc``; insert on miss. Returns hit/miss."""
        self.lookups += 1
        word = pc >> 2
        btb_set = self._sets[word & (self._num_sets - 1)]
        tag = word >> (self._num_sets.bit_length() - 1)
        self._clock += 1
        if tag in btb_set:
            btb_set[tag] = self._clock
            return True
        self.misses += 1
        if len(btb_set) >= self._ways:
            del btb_set[min(btb_set, key=btb_set.__getitem__)]
        btb_set[tag] = self._clock
        return False
