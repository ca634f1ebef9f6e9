"""Next-line (sequential) prefetching."""

from __future__ import annotations

from typing import List

from repro.prefetch.base import Prefetcher, PrefetchRequest


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next ``degree`` sequential lines on a demand miss.

    The simplest useful prefetcher: ideal for streaming sweeps, pure
    pollution for pointer chasing — which is exactly the spread of
    behaviours a hybrid needs to adjudicate.
    """

    name = "nextline"

    def __init__(self, degree: int = 1):
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree

    def observe(self, block: int, was_hit: bool) -> List[PrefetchRequest]:
        if was_hit:
            return []
        return [
            PrefetchRequest(block + i, self.name)
            for i in range(1, self.degree + 1)
        ]
