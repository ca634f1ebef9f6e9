"""Span recording for the traced benchmark run.

A span is one call into a layer: its name, start and end
(``perf_counter_ns``), the span that caused it, and the request or
simulator cell it served. Layers are measured from outside only: the
tracer replaces a layer instance's public methods, or a module's
public functions, with recording wrappers, and puts the originals back
afterwards.

Parents are tracked through a context variable. Per-name calls, total
time and self time are aggregated as spans close; self time is a
span's duration minus the time its child spans cover. Full spans are
kept only for one request in ``sample_every``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import time
from typing import Dict, Iterator, List

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)

#: The request (or simulator cell) id the running code serves; the
#: workloads set it per operation, spans record it.
REQUEST: contextvars.ContextVar = contextvars.ContextVar("e2e_request", default=0)

#: Cap on kept spans; the rest are counted in ``Tracer.dropped``.
MAX_KEPT = 20_000


class _Span:
    __slots__ = ("id", "start", "parent", "request", "child_ns")


class LayerStats:
    """Calls and times aggregated over every span of one name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Wraps layer callables with span recorders and aggregates them.

    Args:
        sample_every: keep full spans for requests whose id is a
            multiple of this.
        clock: nanosecond clock.
    """

    def __init__(self, sample_every: int = 100, clock=time.perf_counter_ns):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.clock = clock
        self.layers: Dict[str, LayerStats] = {}
        self.counters: Dict[str, float] = {}
        self.kept: List[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        """The aggregate for ``name``, created on first use."""
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        return stats

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self) -> tuple:
        # Clock first: the span's own bookkeeping is charged to it, not
        # left uncovered between spans.
        start = self.clock()
        parent = _CURRENT.get()
        span = _Span()
        self._next_id += 1
        span.id = self._next_id
        span.start = start
        span.parent = parent
        span.request = REQUEST.get()
        span.child_ns = 0
        token = _CURRENT.set(span)
        return span, token

    def _close(self, name: str, stats: LayerStats, span, token) -> None:
        end = self.clock()
        _CURRENT.reset(token)
        duration = end - span.start
        stats.calls += 1
        stats.total_ns += duration
        stats.self_ns += duration - span.child_ns
        parent = span.parent
        if parent is not None:
            parent.child_ns += duration
        if span.request % self.sample_every == 0:
            if len(self.kept) < MAX_KEPT:
                parent_id = parent.id if parent is not None else None
                self.kept.append((name, span.start, end, span.id, parent_id, span.request))
            else:
                self.dropped += 1

    def wrap(self, name: str, fn):
        """A span-recording stand-in for ``fn``."""
        opened, closed, stats = self._open, self._close, self.layer(name)

        def traced(*args, **kwargs):
            span, token = opened()
            try:
                return fn(*args, **kwargs)
            finally:
                closed(name, stats, span, token)

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or an instance's
        method) with a recording wrapper until :meth:`restore`."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def patch_methods(self, owner, prefix: str, methods) -> None:
        """:meth:`patch` each of ``methods`` as ``<prefix>.<method>``."""
        for method in methods:
            self.patch(owner, method, f"{prefix}.{method}")

    def restore(self, keep: int = 0) -> None:
        """Put back what :meth:`replace` changed, newest first, leaving
        the oldest ``keep`` replacements in place."""
        while len(self._patches) > keep:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def scoped(self) -> Iterator["Tracer"]:
        """Undo on exit whatever is patched inside the block (for
        short-lived objects such as one simulator cell's cache)."""
        keep = len(self._patches)
        try:
            yield self
        finally:
            self.restore(keep)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def self_ns_total(self) -> int:
        """Summed self time of every layer."""
        return sum(stats.self_ns for stats in self.layers.values())

    def summary(self, wall_ns: int, ops: int) -> Dict[str, dict]:
        """Per-layer calls, self time, share of ``wall_ns`` and calls
        per end-to-end operation."""
        out = {}
        for name, stats in sorted(self.layers.items()):
            out[name] = {
                "calls": stats.calls,
                "calls_per_op": stats.calls / ops if ops else 0.0,
                "self_us": stats.self_ns / 1e3,
                "total_us": stats.total_ns / 1e3,
                "self_pct": 100.0 * stats.self_ns / wall_ns if wall_ns else 0.0,
            }
        return out

    def write_spans(self, path: str) -> int:
        """Write kept spans as JSON lines, times relative to the
        earliest start; returns the number written."""
        origin_ns = min((span[1] for span in self.kept), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, span_id, parent, request in self.kept:
                record = {
                    "name": name,
                    "start_ns": start - origin_ns,
                    "end_ns": end - origin_ns,
                    "id": span_id,
                    "parent": parent,
                    "request": request,
                }
                handle.write(json.dumps(record) + "\n")
        return len(self.kept)

