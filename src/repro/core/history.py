"""Per-set miss history buffers (Section 2.2).

The history buffer records the recent relative performance of the
component policies for one cache set. The paper discusses three
realizations, all implemented here:

* :class:`CounterHistory` — integer counts of all misses "since the
  beginning of time". Easiest to reason about; the Appendix proves the
  2x bound for this variant.
* :class:`SaturatingCounterHistory` — bounded-width approximation.
* :class:`BitVectorHistory` — the paper's implementation choice: an
  m-bit vector of the last m *decisive* misses (misses suffered by some
  but not all components), giving quick adaptation to recent behaviour.
  m defaults to the associativity.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Sequence

from repro.utils.bitops import mask


class MissHistory(abc.ABC):
    """Interface shared by all history buffer variants."""

    def __init__(self, num_components: int):
        if num_components < 2:
            raise ValueError(
                f"history needs at least 2 components, got {num_components}"
            )
        self.num_components = num_components

    def record(self, missed: Sequence[bool]) -> bool:
        """Record the component miss outcomes of one access.

        Only *decisive* events — where at least one component missed and
        at least one hit — carry information about which policy is
        better, so ties (all hit / all missed) are not recorded, exactly
        as the paper specifies for its bit-vector ("if both component
        policies would have missed, then there is no need to record").

        Returns:
            True if the event was decisive and recorded.
        """
        if len(missed) != self.num_components:
            raise ValueError(
                f"expected {self.num_components} outcomes, got {len(missed)}"
            )
        decisive = any(missed) and not all(missed)
        if decisive:
            self._record_decisive(missed)
        return decisive

    @abc.abstractmethod
    def _record_decisive(self, missed: Sequence[bool]) -> None:
        """Store one decisive miss event."""

    @abc.abstractmethod
    def misses(self, component: int) -> int:
        """Recorded miss score of ``component``."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Forget every recorded event (fault-injection hook).

        Models a transient fault wiping the buffer. The history is hint
        state only: a cleared buffer merely resets the selector toward
        the first component, it cannot make the cache return wrong data.
        """

    def scramble(self, rng, events: int = 4) -> None:
        """Replace the recorded state with random decisive events.

        Models a multi-bit upset in the buffer's SRAM. The corruption is
        expressed through :meth:`record` so every variant's internal
        invariants (window/count agreement) hold even for faulted state.

        Args:
            rng: a :class:`~repro.utils.rng.DeterministicRNG`.
            events: number of random decisive events to record.
        """
        self.clear()
        for _ in range(events):
            loser = rng.choice_index(self.num_components)
            self.record([i == loser for i in range(self.num_components)])

    def best_component(self) -> int:
        """Component with the fewest recorded misses; ties favour the
        lower index (the paper's example imitates A on equal counts)."""
        scores = [self.misses(i) for i in range(self.num_components)]
        return scores.index(min(scores))

    @abc.abstractmethod
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the recorded events.

        Part of the crash-recovery contract (see
        :meth:`repro.policies.base.ReplacementPolicy.state_dict`): a
        restored history must score components identically to the one
        that produced the snapshot.
        """

    @abc.abstractmethod
    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""


class CounterHistory(MissHistory):
    """Unbounded integer miss counters (the provable variant)."""

    def __init__(self, num_components: int = 2):
        super().__init__(num_components)
        self._counts = [0] * num_components

    def _record_decisive(self, missed: Sequence[bool]) -> None:
        for i, m in enumerate(missed):
            if m:
                self._counts[i] += 1

    def misses(self, component: int) -> int:
        return self._counts[component]

    def best_component(self) -> int:
        """Component with the fewest recorded misses; ties favour the
        lower index. Direct-on-counts override of the generic scan (the
        adaptive policy asks on every real miss)."""
        counts = self._counts
        return counts.index(min(counts))

    def clear(self) -> None:
        self._counts = [0] * self.num_components

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the miss counters."""
        return {"counts": list(self._counts)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._counts = [int(c) for c in state["counts"]]


class SaturatingCounterHistory(MissHistory):
    """Fixed-width counters; on saturation all counters halve.

    Halving preserves the *relative* standing of the components while
    keeping the counters bounded, so the selector keeps adapting instead
    of freezing once a counter pegs.
    """

    def __init__(self, num_components: int = 2, bits: int = 8):
        super().__init__(num_components)
        if bits <= 0:
            raise ValueError(f"counter width must be positive, got {bits}")
        self.bits = bits
        self._max = mask(bits)
        self._counts = [0] * num_components

    def _record_decisive(self, missed: Sequence[bool]) -> None:
        for i, m in enumerate(missed):
            if m:
                self._counts[i] += 1
        if any(c > self._max for c in self._counts):
            self._counts = [c >> 1 for c in self._counts]

    def misses(self, component: int) -> int:
        return self._counts[component]

    def best_component(self) -> int:
        """Component with the fewest recorded misses; ties favour the
        lower index. Direct-on-counts override of the generic scan."""
        counts = self._counts
        return counts.index(min(counts))

    def clear(self) -> None:
        self._counts = [0] * self.num_components

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the saturating counters."""
        return {"counts": list(self._counts)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._counts = [int(c) for c in state["counts"]]


class BitVectorHistory(MissHistory):
    """Sliding window over the last m decisive misses (the paper's choice).

    Each recorded event remembers *which* components missed; the score of
    a component is how many of the last m decisive events it missed on.
    For two components this is exactly the paper's m-bit vector where
    each bit says whether the miss belonged to the first or the second
    policy.
    """

    def __init__(self, num_components: int = 2, window: int = 8):
        super().__init__(num_components)
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._events = deque(maxlen=window)
        self._counts = [0] * num_components

    def _record_decisive(self, missed: Sequence[bool]) -> None:
        event = tuple(bool(m) for m in missed)
        if len(self._events) == self.window:
            oldest = self._events[0]
            for i, m in enumerate(oldest):
                if m:
                    self._counts[i] -= 1
        self._events.append(event)
        for i, m in enumerate(event):
            if m:
                self._counts[i] += 1

    def misses(self, component: int) -> int:
        return self._counts[component]

    def best_component(self) -> int:
        """Component with the fewest window misses; ties favour the
        lower index. Direct-on-counts override of the generic scan."""
        counts = self._counts
        return counts.index(min(counts))

    def clear(self) -> None:
        self._events.clear()
        self._counts = [0] * self.num_components

    def recorded_events(self) -> int:
        """Number of events currently in the window (testing aid)."""
        return len(self._events)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the event window.

        The derived counts are rebuilt on load rather than stored, so a
        snapshot can never carry a window/count disagreement.
        """
        return {"events": [list(event) for event in self._events]}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (JSON round-trip safe)."""
        self._events = deque(
            (tuple(bool(m) for m in event) for event in state["events"]),
            maxlen=self.window,
        )
        self._counts = [0] * self.num_components
        for event in self._events:
            for i, m in enumerate(event):
                if m:
                    self._counts[i] += 1


def make_history_factory(
    kind: str = "bitvector", **kwargs
) -> Callable[[int], MissHistory]:
    """Build a per-set history factory from a kind name.

    Args:
        kind: ``"bitvector"`` (default, paper's implementation),
            ``"counter"`` (theory variant) or ``"saturating"``.
        kwargs: forwarded to the history constructor (``window``,
            ``bits``, ...).

    Returns:
        A callable ``factory(num_components) -> MissHistory``; the
        adaptive policy calls it once per cache set.
    """
    kinds = {
        "bitvector": BitVectorHistory,
        "counter": CounterHistory,
        "saturating": SaturatingCounterHistory,
    }
    try:
        cls = kinds[kind]
    except KeyError:
        known = ", ".join(sorted(kinds))
        raise ValueError(f"unknown history kind {kind!r}; known: {known}") from None

    def factory(num_components: int) -> MissHistory:
        return cls(num_components, **kwargs)

    return factory
