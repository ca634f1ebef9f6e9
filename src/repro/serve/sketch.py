"""Streaming percentile sketch with a bounded relative error.

An SLO report needs p99/p999 over millions of request latencies without
holding them all. :class:`LatencySketch` is a log-bucketed quantile
sketch in the DDSketch style: values land in geometric buckets
``gamma^k``; any quantile read back is within a configured *relative*
error of the exact sample quantile — the right error model for
latencies, where p999 may be 1000x p50 and a fixed absolute error would
be either useless at the tail or wasteful at the median.

The guarantee (checked differentially in
``tests/serve/test_sketch.py`` against exact sorted quantiles on
adversarial distributions): for any quantile ``q`` over recorded values
``v >= min_value``,

    |sketch.quantile(q) - exact_quantile(values, q)|
        <= relative_error * exact_quantile(values, q).

Sketches merge losslessly (bucket-wise addition), so per-shard or
per-regime sketches can be combined.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Exact lower-nearest-rank quantile of ``values``.

    The reference the sketch is tested against: the element at 0-based
    rank ``floor(q * (n - 1))`` of the sorted sample — the same rank
    convention the sketch's cumulative walk uses, so the two are
    directly comparable.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        raise ValueError("cannot take a quantile of no values")
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


class LatencySketch:
    """A mergeable log-bucketed quantile sketch."""

    #: The quantile accuracy bound.
    relative_error = 0.01
    #: Values at or below this collapse into a zero bucket reported as
    #: ``min_value``: sub-resolution latencies are all "effectively
    #: instant".
    min_value = 1e-9
    _gamma = (1.0 + relative_error) / (1.0 - relative_error)
    _log_gamma = math.log(_gamma)

    def __init__(self):
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Record one value (must be finite and >= 0)."""
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"value must be finite and >= 0, got {value}")
        self.count += 1
        self.total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value <= self.min_value:
            self._zero += 1
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        """Exact mean of the recorded values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, within ``relative_error`` of exact.

        The estimate is additionally clamped into the exact observed
        ``[min, max]`` range, so no estimate can fall outside the
        recorded sample.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("cannot take a quantile of an empty sketch")
        rank = int(q * (self.count - 1))
        if rank < self._zero:
            return min(self.min_value, self._max)
        cumulative = self._zero
        estimate = self.min_value
        for key in sorted(self._buckets):
            cumulative += self._buckets[key]
            if cumulative > rank:
                # Midpoint (in relative terms) of (gamma^(k-1), gamma^k].
                estimate = (
                    2.0 * self._gamma ** key / (self._gamma + 1.0)
                )
                break
        return max(self._min, min(self._max, estimate))

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Several quantiles at once."""
        return [self.quantile(q) for q in qs]

    def __len__(self) -> int:
        """Number of recorded values."""
        return self.count

    def __repr__(self) -> str:
        return (
            f"LatencySketch(count={self.count}, "
            f"buckets={len(self._buckets)}, "
            f"relative_error={self.relative_error})"
        )
