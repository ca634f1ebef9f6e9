"""Reusable adaptation selectors, decoupled from set indexing.

The paper's machinery makes two kinds of decisions:

* a *local* decision — per cache set, imitate the component policy with
  the fewest recorded decisive misses (Algorithm 1, step 1);
* a *global* decision — a saturating PSEL-style counter trained by
  sampled leader sets, imitated by everyone else (the SBAR variant of
  Section 4.7).

Both were originally embedded in the set-indexed policies
(:class:`~repro.core.adaptive.AdaptivePolicy`,
:class:`~repro.core.sbar.SbarPolicy`). This module extracts them so the
same logic can select between replacement policies for *any* cache
unit — a hardware set, or a shard of the online key-value engine
(:mod:`repro.online`), which has no notion of set indices at all.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.history import BitVectorHistory, MissHistory
from repro.utils.bitops import mask


class PolicySelector:
    """Algorithm 1's local selector over one miss-history buffer.

    Wraps a :class:`~repro.core.history.MissHistory` and answers the
    question "which component policy should this unit imitate right
    now?". One instance serves one adaptation unit (a cache set, an
    online shard).

    Args:
        history: the miss-history buffer recording decisive outcomes;
            defaults to the paper's bit-vector with an 8-event window.
        num_components: number of component policies; only used to build
            the default history.
    """

    def __init__(
        self,
        history: Optional[MissHistory] = None,
        num_components: int = 2,
    ):
        self.history = history or BitVectorHistory(num_components)
        self.switches = 0
        self._best = 0

    @property
    def num_components(self) -> int:
        """Number of component policies being selected between."""
        return self.history.num_components

    def record(self, missed: Sequence[bool]) -> bool:
        """Record one access's per-component miss outcomes.

        Only decisive events (some but not all components missed) carry
        information; the history filters them itself. A decisive event
        that changes the imitated component bumps :attr:`switches`.

        Returns:
            True if the event was decisive and recorded.
        """
        decisive = self.history.record(missed)
        if decisive:
            best = self.history.best_component()
            if best != self._best:
                self.switches += 1
                self._best = best
        return decisive

    def best_component(self) -> int:
        """Component with the fewest recorded misses (ties favour 0)."""
        return self.history.best_component()

    def state_dict(self) -> dict:
        """JSON-serializable snapshot: history state, switch counter and
        the currently imitated component."""
        return {
            "history": self.history.state_dict(),
            "switches": self.switches,
            "best": self._best,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self.history.load_state_dict(state["history"])
        self.switches = int(state["switches"])
        self._best = int(state["best"])


class GlobalSelector:
    """A PSEL-style saturating counter selecting between two components.

    The SBAR variant's global decision structure (Section 4.7): decisive
    misses observed in sampled leader units vote the counter toward the
    component that did *not* miss, and follower units imitate whichever
    side of the midpoint the counter sits on. Extracted from
    :class:`~repro.core.sbar.SbarPolicy` so the online engine's sampled
    mode can reuse it across shards.

    Args:
        bits: counter width; the counter saturates at ``2**bits - 1``
            and starts at the midpoint (no initial preference).
    """

    def __init__(self, bits: int = 10):
        if bits <= 1:
            raise ValueError(f"psel_bits must be > 1, got {bits}")
        self.bits = bits
        self.max_value = mask(bits)
        self._mid = (self.max_value + 1) // 2
        self.value = self._mid
        self.switches = 0

    def selected(self) -> int:
        """Component the counter currently favours (0 or 1)."""
        return 1 if self.value > self._mid else 0

    def vote(self, missed: Sequence[bool]) -> bool:
        """Feed one access's (two-component) miss outcomes.

        A miss suffered only by component 0 is evidence for component 1
        and vice versa; ties (both hit / both missed) are ignored, as in
        the per-set history buffers. Flipping sides bumps
        :attr:`switches`.

        Returns:
            True if the vote was decisive and moved the counter.
        """
        if len(missed) != 2:
            raise ValueError(
                f"the global selector adapts over exactly 2 components, "
                f"got {len(missed)} outcomes"
            )
        if missed[0] == missed[1]:
            return False
        before = self.selected()
        if missed[0] and self.value < self.max_value:
            self.value += 1
        elif missed[1] and self.value > 0:
            self.value -= 1
        else:
            return False
        if self.selected() != before:
            self.switches += 1
        return True

    def set_value(self, value: int) -> None:
        """Clamp-write the counter (fault-injection hook).

        The counter is a pure performance hint: an arbitrary value only
        changes which component followers imitate until real decisive
        misses re-train it, so corrupting it is always safe.
        """
        self.value = max(0, min(self.max_value, value))

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the counter and switch count."""
        return {"value": self.value, "switches": self.switches}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self.value = max(0, min(self.max_value, int(state["value"])))
        self.switches = int(state["switches"])
