"""Unit tests for atomic file writes."""

import os

import pytest

from repro.utils.atomicio import (
    atomic_output,
    atomic_write_bytes,
    atomic_write_text,
)


class TestAtomicOutput:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_output(path) as handle:
            handle.write(b"hello")
        assert path.read_bytes() == b"hello"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failure_leaves_old_contents(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"original")
        with pytest.raises(RuntimeError):
            with atomic_output(path) as handle:
                handle.write(b"partial new data")
                raise RuntimeError("writer died mid-stream")
        assert path.read_bytes() == b"original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failure_without_existing_file_leaves_nothing(self, tmp_path):
        path = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_output(path) as handle:
                handle.write(b"doomed")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []


class TestConvenienceWrappers:
    def test_write_bytes(self, tmp_path):
        path = tmp_path / "b.bin"
        atomic_write_bytes(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_write_text(self, tmp_path):
        path = tmp_path / "t.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]

    def test_accepts_str_paths(self, tmp_path):
        path = os.path.join(str(tmp_path), "s.txt")
        atomic_write_text(path, "str path")
        assert open(path).read() == "str path"


class TestDirectoryFsyncDegradation:
    """Filesystems that reject directory fsync degrade with one warning."""

    def _refusing_fsync(self, monkeypatch, errno_value):
        import stat

        from repro.utils import atomicio

        real_fsync = os.fsync
        refused = []

        def fsync(fd):
            # File fsyncs (regular handles) proceed; directory fds are
            # the ones some filesystems refuse.
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                refused.append(fd)
                raise OSError(errno_value, os.strerror(errno_value))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(atomicio, "_warned_dir_fsync", False)
        return refused

    def test_einval_degrades_with_one_warning(self, tmp_path, monkeypatch):
        import errno as errno_mod
        import warnings as warnings_mod

        refused = self._refusing_fsync(monkeypatch, errno_mod.EINVAL)
        path = tmp_path / "out.txt"
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            atomic_write_text(path, "first")
            atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert refused, "the directory fsync was never attempted"
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1  # one-time, not per write
        assert "directory fsync" in str(runtime[0].message)

    def test_enotsup_degrades_without_raising(self, tmp_path, monkeypatch):
        import errno as errno_mod
        import warnings as warnings_mod

        self._refusing_fsync(monkeypatch, errno_mod.ENOTSUP)
        path = tmp_path / "out.bin"
        with warnings_mod.catch_warnings(record=True):
            warnings_mod.simplefilter("always")
            atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_unexpected_errno_stays_silent(self, tmp_path, monkeypatch):
        import errno as errno_mod
        import warnings as warnings_mod

        # EIO is a real failure, but directory fsync has always been
        # best-effort; the contract adds a warning only for the
        # "filesystem doesn't support this" errnos.
        self._refusing_fsync(monkeypatch, errno_mod.EIO)
        path = tmp_path / "out.txt"
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            atomic_write_text(path, "data")
        assert path.read_text() == "data"
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
