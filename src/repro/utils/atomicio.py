"""Atomic file writes (tmp file + ``os.replace``).

Every artifact the harness persists — traces, checkpoints, reports —
goes through these helpers so that an interrupt (Ctrl-C, OOM kill,
crash) can never leave a half-written file behind: readers either see
the previous complete version or the new complete version, never a
truncated hybrid. ``os.replace`` is atomic on POSIX and Windows when
source and destination live on the same filesystem, which the helpers
guarantee by creating the temporary file in the destination directory.
"""

from __future__ import annotations

import contextlib
import errno
import os
import tempfile
import warnings
from typing import IO, Iterator, Union

Pathish = Union[str, os.PathLike]

# Whether this process has already warned that the filesystem refuses
# directory fsync; the condition is filesystem-wide, so one warning per
# process is signal and every further one is noise.
_warned_dir_fsync = False


@contextlib.contextmanager
def atomic_output(path: Pathish) -> Iterator[IO[bytes]]:
    """Open a temporary file that atomically replaces ``path`` on success.

    Yields a writable binary handle.
    On clean exit the data is flushed, fsynced and moved over ``path``
    with ``os.replace``, then the parent directory is fsynced so the
    rename itself is durable — without that, a power loss after the
    replace can roll the *directory entry* back to the old file even
    though the new data blocks were synced. On any exception the
    temporary file is removed and ``path`` is left untouched.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        _fsync_directory(directory)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _fsync_directory(directory: str) -> None:
    """Flush a directory's entries to disk (durable rename).

    Best-effort: some platforms/filesystems refuse ``open`` or
    ``fsync`` on directories — Windows rejects the open, and several
    filesystems (certain network and overlay mounts) accept the open
    but fail the fsync with ``EINVAL`` or ``ENOTSUP``. Those writers
    keep the pre-existing atomicity guarantee, just not rename
    durability; the degradation is announced once per process via a
    :class:`RuntimeWarning` rather than by raising, so a harness run
    on such a filesystem completes instead of dying on its first
    artifact.
    """
    global _warned_dir_fsync
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError as error:
        if (not _warned_dir_fsync
                and error.errno in (errno.EINVAL, errno.ENOTSUP)):
            _warned_dir_fsync = True
            warnings.warn(
                f"filesystem rejects directory fsync ({error}); atomic "
                "writes stay atomic but renames are not crash-durable",
                RuntimeWarning,
                stacklevel=3,
            )
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: Pathish, data: bytes) -> None:
    """Atomically write ``data`` to ``path``."""
    with atomic_output(path) as handle:
        handle.write(data)


def atomic_write_text(path: Pathish, text: str) -> None:
    """Atomically write ``text`` to ``path``, UTF-8 encoded."""
    atomic_write_bytes(path, text.encode("utf-8"))
