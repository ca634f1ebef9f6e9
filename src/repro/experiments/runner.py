"""Crash isolation for experiment cells: captured failures, timeouts.

A multi-hour ``--scale paper`` sweep must not die wholesale because one
experiment crashed. :func:`run_cell` wraps one unit of work (an
experiment's render, or the one sweep pass of an invocation) with:

* **crash isolation** — any ``Exception`` is captured into a
  :class:`CellOutcome` instead of propagating (``KeyboardInterrupt`` and
  ``SystemExit`` always propagate, so Ctrl-C still stops the sweep);
* **a wall-clock timeout** — enforced with ``SIGALRM`` where available
  (POSIX main thread); elsewhere the timeout is silently skipped rather
  than unsupported platforms crashing.

A failed cell is not retried: every cell is a deterministic function of
its inputs, so a second attempt fails the same way.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


class CellTimeout(RuntimeError):
    """A cell exceeded its wall-clock timeout."""


@dataclass
class CellOutcome:
    """What happened when a cell ran.

    Attributes:
        name: the cell's display name.
        value: the function's return value, if it succeeded.
        error: the exception, if it failed.
    """

    name: str
    value: object = None
    error: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        """True when the cell raised."""
        return self.error is not None


def timeout_supported() -> bool:
    """Whether wall-clock timeouts can be enforced here (POSIX main thread)."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _alarm(seconds: Optional[float], name: str):
    """Raise :class:`CellTimeout` inside the block after ``seconds``."""
    if not seconds or not timeout_supported():
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeout(f"cell {name!r} exceeded {seconds:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_cell(
    fn: Callable[[], object],
    name: str,
    timeout: Optional[float] = None,
) -> CellOutcome:
    """Run one cell with isolation and a timeout.

    Args:
        fn: the zero-argument unit of work.
        name: display name for messages and the timeout error.
        timeout: wall-clock limit in seconds, or None.

    Returns:
        A :class:`CellOutcome`; exceptions never propagate except
        ``KeyboardInterrupt`` / ``SystemExit``.
    """
    outcome = CellOutcome(name=name)
    try:
        with _alarm(timeout, name):
            outcome.value = fn()
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        outcome.error = exc
    return outcome
