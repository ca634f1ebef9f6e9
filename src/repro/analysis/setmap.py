"""Per-set policy-choice maps over time (Figure 7).

Figure 7 paints, for every cache set and every time quantum, which
component policy the adaptive cache's replacement decisions followed —
white for LFU-favourable regions, black for LRU. :func:`collect_setmap`
reproduces the data behind the figure by draining the adaptive policy's
per-set decision counters every ``sample_every`` memory references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cache.cache import SetAssociativeCache
from repro.core.adaptive import AdaptivePolicy
from repro.workloads.trace import Trace

NO_DECISION = -1

#: :meth:`SetMap.render`'s glyph for each component, in order.
GLYPHS = "#.o+x"


@dataclass
class SetMap:
    """A (sets x time-samples) majority-decision matrix.

    ``cells[s][t]`` is the index of the component that made the majority
    of replacement decisions in set ``s`` during quantum ``t``, or
    ``NO_DECISION`` if the set saw no replacements.
    """

    component_names: List[str]
    cells: List[List[int]]

    @property
    def num_sets(self) -> int:
        return len(self.cells)

    @property
    def num_samples(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def component_fraction(self, component: int, sample: int = None) -> float:
        """Fraction of deciding cells that chose ``component``.

        Restricted to one time sample if given, otherwise over the whole
        map. Returns 0.0 when no cell made a decision.
        """
        deciding = 0
        chosen = 0
        for row in self.cells:
            samples = [row[sample]] if sample is not None else row
            for cell in samples:
                if cell != NO_DECISION:
                    deciding += 1
                    if cell == component:
                        chosen += 1
        return chosen / deciding if deciding else 0.0

    def render(self) -> str:
        """ASCII rendering: one row per set, one column per quantum.

        Component i paints ``GLYPHS[i]``; the paper's convention maps
        component 0 (LRU) to dark and component 1 (LFU) to light. A
        quantum with no decision is blank.
        """
        if len(GLYPHS) < len(self.component_names):
            raise ValueError("not enough glyphs for the component count")
        return "\n".join(
            "".join(" " if c == NO_DECISION else GLYPHS[c] for c in row)
            for row in self.cells
        )


def collect_setmap(
    trace: Trace,
    cache: SetAssociativeCache,
    sample_every: int = 5000,
) -> SetMap:
    """Run ``trace``'s memory references through ``cache`` and sample.

    ``cache`` must be managed by an :class:`AdaptivePolicy`; its per-set
    decision counters are drained every ``sample_every`` references.
    """
    policy = cache.policy
    if not isinstance(policy, AdaptivePolicy):
        raise TypeError(
            f"setmaps need an AdaptivePolicy-managed cache, got {type(policy)}"
        )
    if sample_every <= 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")

    columns: List[List[List[int]]] = []
    seen = 0
    policy.drain_decisions()  # clear anything accumulated before the run
    for address, is_write in zip(*trace.memory_stream()):
        cache.access(address, is_write=is_write)
        seen += 1
        if seen % sample_every == 0:
            columns.append(policy.drain_decisions())
    if seen % sample_every != 0:
        columns.append(policy.drain_decisions())

    num_sets = cache.config.num_sets
    cells = [[NO_DECISION] * len(columns) for _ in range(num_sets)]
    for t, column in enumerate(columns):
        for s in range(num_sets):
            counts = column[s]
            if any(counts):
                best = max(range(len(counts)), key=counts.__getitem__)
                cells[s][t] = best
    return SetMap(
        component_names=[c.name for c in policy.components],
        cells=cells,
    )
