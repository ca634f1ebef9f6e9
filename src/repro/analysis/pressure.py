"""Per-set pressure analysis.

The paper's third argument for per-set adaptivity (end of Section 2.5)
is that "if the best component policy changes from one set of the cache
to the other, the adaptive policy will outperform both component
policies overall just by selecting the better one for every set." This
module quantifies that precondition: how often sets disagree about the
better component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class DisagreementReport:
    """How much the cache's sets disagree about the better component.

    Attributes:
        prefer_first: sets where component 0 misses strictly less.
        prefer_second: sets where component 1 misses strictly less.
        indifferent: sets with equal misses (including zero-miss sets).
    """

    prefer_first: int
    prefer_second: int
    indifferent: int

    @property
    def disagreement(self) -> float:
        """Fraction of opinionated sets in the minority camp.

        0.0 = every opinionated set prefers the same component (a global
        selector like SBAR's loses nothing); approaching 0.5 = the sets
        split evenly (only per-set adaptivity can serve both camps).
        """
        opinionated = self.prefer_first + self.prefer_second
        if opinionated == 0:
            return 0.0
        return min(self.prefer_first, self.prefer_second) / opinionated


def component_disagreement(
    first_per_set: Sequence[int], second_per_set: Sequence[int]
) -> DisagreementReport:
    """Compare two components' per-set miss vectors.

    Feed it the adaptive policy's shadow counters
    (``policy.shadows[i].per_set_misses``) after a run.
    """
    if len(first_per_set) != len(second_per_set):
        raise ValueError(
            f"per-set vectors differ in length: {len(first_per_set)} vs "
            f"{len(second_per_set)}"
        )
    prefer_first = prefer_second = indifferent = 0
    for a, b in zip(first_per_set, second_per_set):
        if a < b:
            prefer_first += 1
        elif b < a:
            prefer_second += 1
        else:
            indifferent += 1
    return DisagreementReport(prefer_first, prefer_second, indifferent)
