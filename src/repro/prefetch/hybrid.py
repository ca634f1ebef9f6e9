"""Adaptive hybrid prefetching via usefulness history.

The direct analogue of the cache adaptivity scheme (Section 6 of the
paper): where the cache records which component policy *missed*, the
hybrid records which component prefetcher produced a *useless* prefetch
(evicted before use) versus a useful one, in the same sliding-window
history structure, and issues candidates only from the component with
the better recent record.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.history import BitVectorHistory, MissHistory
from repro.prefetch.base import Prefetcher, PrefetchRequest


class AdaptiveHybridPrefetcher(Prefetcher):
    """Adapts over N component prefetchers by recent usefulness.

    Every component observes every demand access (so all stay trained),
    but only the currently-best component's candidates are issued. The
    issuing engine reports back each prefetch's fate through
    :meth:`record_outcome`; a useless prefetch is the analogue of a miss
    in the cache scheme's history.

    Usefulness is kept over a window of the last ``window`` outcomes.
    For the first ``probation`` observations *all* components'
    candidates are issued, so each accumulates a record before
    selection narrows (the cache scheme gets this for free because
    shadow tags always run; prefetch outcomes only exist for issued
    prefetches).

    Args:
        components: component prefetchers, order = tie-break priority.
    """

    name = "adaptive-hybrid"
    #: Outcomes the usefulness history remembers.
    window = 32
    #: Observations during which every component's candidates issue.
    probation = 512

    def __init__(self, components: Sequence[Prefetcher]):
        if len(components) < 2:
            raise ValueError(
                f"hybrid needs at least 2 components, got {len(components)}"
            )
        self.components = list(components)
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"component names must be unique, got {names}")
        self._index = {c.name: i for i, c in enumerate(self.components)}
        self.history: MissHistory = BitVectorHistory(
            len(self.components), window=self.window
        )
        self.observations = 0
        self.name = "adaptive(" + "+".join(names) + ")"

    def selected_component(self) -> int:
        """Index of the component whose candidates are issued."""
        return self.history.best_component()

    def observe(self, block: int, was_hit: bool) -> List[PrefetchRequest]:
        self.observations += 1
        all_candidates = [
            component.observe(block, was_hit) for component in self.components
        ]
        if self.observations <= self.probation:
            return [r for candidates in all_candidates for r in candidates]
        return all_candidates[self.selected_component()]

    def record_outcome(self, request: PrefetchRequest, useful: bool) -> None:
        """Report the fate of an issued prefetch.

        A useless prefetch counts as a "miss" against its source in the
        history; a useful one counts as a miss against everyone else —
        so the score ranks components by recent usefulness, mirroring
        how decisive cache misses rank policies.
        """
        source = self._index.get(request.source)
        if source is None:
            return  # a candidate from a component since removed; ignore
        if useful:
            event = [True] * len(self.components)
            event[source] = False
        else:
            event = [False] * len(self.components)
            event[source] = True
        self.history.record(event)

    def reset(self) -> None:
        for component in self.components:
            component.reset()
        self.observations = 0
