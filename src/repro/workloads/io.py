"""Trace serialization.

Long traces are expensive to regenerate (and the paper's methodology —
SimPoint samples — treats a trace as a fixed artifact), so traces can
be saved to and loaded from compressed ``.npz`` files. The format
stores the trace's three record columns as they are (int8 kinds, int64
addresses, int32 gaps) plus the trace name; it is stable, compact (a
few bytes per record), and loads orders of magnitude faster than
regeneration.

Robustness: writes are atomic (tmp file + ``os.replace``), so an
interrupted save never leaves a half-written archive; loads validate
the archive end to end — readability, format version, required fields,
dtypes, shapes, record-kind range — and raise a typed
:class:`TraceFormatError` on any defect. The experiment runner catches
that error and regenerates the trace instead of aborting a sweep.
"""

from __future__ import annotations

import os
import struct
import zipfile
import zlib
from typing import Union

import numpy as np

from repro.utils.atomicio import atomic_output
from repro.workloads.trace import (
    COLUMN_DTYPES,
    KIND_BRANCH_NOT_TAKEN,
    KIND_LOAD,
    Trace,
)

FORMAT_VERSION = 1

REQUIRED_FIELDS = ("version", "name", "kinds", "addresses", "gaps")

# Everything numpy/zipfile can throw at us while parsing a damaged
# archive: bad zip directory, truncated members, zlib stream errors,
# short header reads.
_DECODE_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    struct.error,
    OSError,
    EOFError,
    ValueError,
)


class TraceFormatError(ValueError):
    """A trace file is unreadable, truncated, or structurally invalid.

    Subclasses :class:`ValueError` so existing callers that caught the
    old untyped errors keep working; the experiment runner catches this
    type specifically to regenerate the trace instead of crashing.
    """


def save_trace(trace: Trace, path: Union[str, os.PathLike]) -> None:
    """Write ``trace`` to ``path`` as a compressed npz archive.

    The write is atomic: the archive is assembled in a temporary file in
    the destination directory and moved into place with ``os.replace``,
    so a Ctrl-C mid-save leaves either the old file or no file — never
    a truncated one.
    """
    with atomic_output(path) as handle:
        np.savez_compressed(
            handle,
            version=np.int64(FORMAT_VERSION),
            name=np.str_(trace.name),
            kinds=trace.kinds,
            addresses=trace.addresses,
            gaps=trace.gaps,
        )


def _validated_array(archive, field: str, path) -> np.ndarray:
    """Read one record array, checking dimensionality and dtype, as its
    :class:`Trace` column."""
    array = archive[field]
    if array.ndim != 1:
        raise TraceFormatError(
            f"corrupt trace file {path}: field {field!r} has shape "
            f"{array.shape}, expected a 1-D array"
        )
    if not np.issubdtype(array.dtype, np.integer):
        raise TraceFormatError(
            f"corrupt trace file {path}: field {field!r} has dtype "
            f"{array.dtype}, expected an integer dtype"
        )
    column = array.astype(COLUMN_DTYPES[field], copy=False)
    if column is not array and not np.array_equal(column, array):
        raise TraceFormatError(
            f"corrupt trace file {path}: field {field!r} holds values "
            f"outside {column.dtype}"
        )
    return column


def load_trace(path: Union[str, os.PathLike]) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    Raises:
        TraceFormatError: if the file cannot be read as an npz archive
            (missing, truncated, not a zip), declares an unsupported
            ``FORMAT_VERSION``, lacks a required field, or holds arrays
            of the wrong shape, dtype, length, or record-kind range.
    """
    try:
        archive_cm = np.load(path, allow_pickle=False)
    except _DECODE_ERRORS as exc:
        raise TraceFormatError(
            f"cannot read trace file {path}: {exc}"
        ) from exc
    try:
        with archive_cm as archive:
            missing = [f for f in REQUIRED_FIELDS if f not in archive.files]
            if missing:
                raise TraceFormatError(
                    f"corrupt trace file {path}: missing required "
                    f"field(s) {', '.join(missing)} "
                    f"(expected {', '.join(REQUIRED_FIELDS)})"
                )
            version = int(archive["version"])
            if version != FORMAT_VERSION:
                raise TraceFormatError(
                    f"unsupported trace format version {version} in {path} "
                    f"(this build reads {FORMAT_VERSION})"
                )
            name = str(archive["name"])
            kinds = _validated_array(archive, "kinds", path)
            addresses = _validated_array(archive, "addresses", path)
            gaps = _validated_array(archive, "gaps", path)
    except TraceFormatError:
        raise
    except _DECODE_ERRORS as exc:
        # Truncated or bit-rotted member data surfaces here, during the
        # actual decompression of an array.
        raise TraceFormatError(
            f"corrupt trace file {path}: {exc}"
        ) from exc
    if not (len(kinds) == len(addresses) == len(gaps)):
        raise TraceFormatError(
            f"corrupt trace file {path}: ragged arrays "
            f"(kinds={len(kinds)}, addresses={len(addresses)}, "
            f"gaps={len(gaps)})"
        )
    if len(kinds) and not (
        int(kinds.min()) >= KIND_LOAD
        and int(kinds.max()) <= KIND_BRANCH_NOT_TAKEN
    ):
        raise TraceFormatError(
            f"corrupt trace file {path}: record kinds outside "
            f"[{KIND_LOAD}, {KIND_BRANCH_NOT_TAKEN}]"
        )
    return Trace(name, kinds, addresses, gaps)
