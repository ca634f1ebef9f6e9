"""JSON checkpoint/resume for experiment sweeps.

A :class:`SweepCheckpoint` is a flat key/value store persisted as JSON
with an atomic write after every update, so killing a sweep at any
point (SIGINT, OOM, power loss) leaves a loadable file recording every
*completed* cell. Keys are slash-joined cell coordinates — e.g.
``cell/fig3/scaled/60000/lucas/Adaptive`` for one (experiment,
workload, policy) simulation, or ``done/fig3/scaled`` for a whole
experiment — and values are JSON data (serialized
:class:`~repro.cpu.timing.TimingResult` cells, rendered report text).

The CLI hands its checkpoint to the one sweep pass of an invocation
(:func:`repro.experiments.base.run_sweeps`) and to the experiments that
run their own cell loops, which restore the cells it already holds
through :func:`checkpointed_cell`. :class:`SweepCells` is the one
lookup/validate/store path every checkpointed sweep shares.
"""

from __future__ import annotations

import json
import os
import sys
from typing import (
    Any, Callable, Dict, NamedTuple, Optional, Sequence, Union,
)

from repro.cpu.timing import TimingResult
from repro.utils.atomicio import atomic_write_text

CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be used (corrupt/wrong version)."""


class SweepCheckpoint:
    """Crash-safe store of completed sweep cells.

    Args:
        path: the JSON file; loaded if it exists, created on first
            :meth:`put`.

    Raises:
        CheckpointError: when the existing file is not valid JSON or
            declares an incompatible version.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        self._cells = {}
        if os.path.exists(self.path):
            try:
                with open(self.path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint file {self.path} is unreadable: {exc}"
                ) from exc
            if not isinstance(payload, dict):
                raise CheckpointError(
                    f"checkpoint file {self.path} holds a "
                    f"{type(payload).__name__}, not an object"
                )
            version = payload.get("version")
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint file {self.path} has version {version!r}; "
                    f"this build reads {CHECKPOINT_VERSION}"
                )
            cells = payload.get("cells")
            if not isinstance(cells, dict):
                raise CheckpointError(
                    f"checkpoint file {self.path} has no 'cells' mapping"
                )
            self._cells = cells

    @classmethod
    def open_or_reset(cls, path: Union[str, os.PathLike]
                      ) -> "SweepCheckpoint":
        """Open ``path``, quarantining a damaged file instead of raising.

        A checkpoint exists to protect a sweep from crashes; a torn or
        corrupt checkpoint killing the resume it was meant to enable
        would be absurd. On :class:`CheckpointError` the file is moved
        aside to ``<path>.corrupt`` (a later run can inspect it), a
        warning goes to stderr, and a fresh empty checkpoint is
        returned — the sweep recomputes from scratch, which is always
        safe.
        """
        try:
            return cls(path)
        except CheckpointError as exc:
            target = os.fspath(path)
            quarantine = target + ".corrupt"
            os.replace(target, quarantine)
            print(
                f"[checkpoint] {exc}; moved aside to {quarantine}, "
                "starting fresh",
                file=sys.stderr,
            )
            return cls(path)

    @staticmethod
    def cell_key(*parts) -> str:
        """Join cell coordinates into a stable key string."""
        return "/".join(str(p) for p in parts)

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, key: str, default=None):
        """The recorded value for ``key``, or ``default``."""
        return self._cells.get(key, default)

    def put(self, key: str, value) -> None:
        """Record a completed cell and persist the file atomically."""
        self.update({key: value})

    def update(self, cells: Dict[str, Any]) -> None:
        """Record completed cells and persist the file atomically, once."""
        self._cells.update(cells)
        self._save()

    def discard(self, key: str) -> None:
        """Forget a cell (e.g. to force recomputation); persists."""
        if key in self._cells:
            del self._cells[key]
            self._save()

    def _save(self) -> None:
        payload = {"version": CHECKPOINT_VERSION, "cells": self._cells}
        atomic_write_text(self.path, json.dumps(payload, indent=1))


# ---------------------------------------------------------------------------
# TimingResult cell serialization
# ---------------------------------------------------------------------------


def timing_to_dict(result: TimingResult) -> dict:
    """JSON-serializable form of one simulation cell."""
    return {
        "name": result.name,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "l2_accesses": result.l2_accesses,
        "l2_misses": result.l2_misses,
        "breakdown": dict(result.breakdown),
    }


def timing_from_dict(payload: dict) -> TimingResult:
    """Rebuild a :class:`TimingResult` recorded by :func:`timing_to_dict`."""
    return TimingResult(
        name=payload["name"],
        instructions=int(payload["instructions"]),
        cycles=float(payload["cycles"]),
        l2_accesses=int(payload["l2_accesses"]),
        l2_misses=int(payload["l2_misses"]),
        breakdown={k: float(v) for k, v in payload["breakdown"].items()},
    )


def restore_cell(payload, key: str, decode=timing_from_dict):
    """A corruption-tolerant ``decode`` for resume paths.

    A checkpoint file can be valid JSON while an individual cell's
    payload is damaged (hand-edited, produced by an older build, or
    hit by partial corruption the outer framing survived). A resume
    must treat such a cell exactly like a missing one: warn, discard,
    resimulate — never crash the sweep.

    Returns:
        The restored cell, or None when the payload is unusable.
    """
    try:
        return decode(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        print(
            f"[checkpoint] cell {key} is corrupt ({exc!r}); "
            "discarding and resimulating",
            file=sys.stderr,
        )
        return None


# ---------------------------------------------------------------------------
# Checkpointed cells
# ---------------------------------------------------------------------------


class CellCodec(NamedTuple):
    """How one kind of cell is written to and read from a checkpoint.

    ``decode`` raises (``KeyError``, ``TypeError``, ``ValueError`` or
    ``AttributeError``) on a damaged payload.
    """

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def dict_cell(*fields: str) -> CellCodec:
    """A metrics-dict cell, valid only while it holds every ``fields``."""

    def decode(payload):
        if not isinstance(payload, dict):
            raise TypeError(f"expected a dict, got {type(payload).__name__}")
        for name in fields:
            if name not in payload:
                raise KeyError(name)
        return payload

    return CellCodec(lambda cell: cell, decode)


class SweepCells:
    """A checkpoint's cells for one experiment at one setup.

    A cell's key is ``cell/<experiment>/<scale>/<accesses>/<coords...>``.
    """

    def __init__(self, checkpoint: SweepCheckpoint, experiment: str, setup):
        self.checkpoint = checkpoint
        self.prefix = ("cell", experiment, setup.name, setup.accesses)

    def key(self, coords: Sequence) -> str:
        """The checkpoint key of the cell at ``coords``."""
        return SweepCheckpoint.cell_key(*self.prefix, *coords)

    def restore(self, coords: Sequence, decode=timing_from_dict):
        """The recorded cell at ``coords``, or None when it is absent.

        A damaged cell is discarded from the file (with a warning) and
        reported as absent, so the caller recomputes it.
        """
        key = self.key(coords)
        payload = self.checkpoint.get(key)
        if payload is None:
            return None
        cell = restore_cell(payload, key, decode)
        if cell is None:
            self.checkpoint.discard(key)
        return cell

    def store(self, coords: Sequence, payload) -> None:
        """Record the encoded cell at ``coords``."""
        self.checkpoint.put(self.key(coords), payload)


def checkpointed_cell(checkpoint: Optional[SweepCheckpoint], experiment: str,
                      setup, coords: Sequence, compute: Callable[[], Any],
                      codec: CellCodec):
    """``compute()``, via ``checkpoint`` if any, under ``experiment``'s
    keys.

    A recorded cell is restored instead of recomputed; a damaged one is
    discarded and recomputed; a computed one is recorded.
    """
    if checkpoint is None:
        return compute()
    cells = SweepCells(checkpoint, experiment, setup)
    cell = cells.restore(coords, codec.decode)
    if cell is None:
        cell = compute()
        cells.store(coords, codec.encode(cell))
    return cell
