"""Unit tests for trace serialization."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.workloads.io import (
    FORMAT_VERSION,
    TraceFormatError,
    load_trace,
    save_trace,
)
from repro.workloads.suite import build_workload
from repro.workloads.trace import KIND_BRANCH_NOT_TAKEN, KIND_LOAD, Trace


class TestRoundTrip:
    def test_suite_workload_round_trips(self, tmp_path):
        config = CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64)
        trace = build_workload("ammp", config, accesses=3000)
        path = tmp_path / "ammp.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert list(loaded) == list(trace)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_trace(Trace("empty"), path)
        loaded = load_trace(path)
        assert loaded.name == "empty"
        assert len(loaded) == 0

    def test_large_addresses_preserved(self, tmp_path):
        trace = Trace.from_records("big", [(KIND_LOAD, (1 << 39) + 64, 3)])
        path = tmp_path / "big.npz"
        save_trace(trace, path)
        assert list(load_trace(path)) == list(trace)

    def test_archive_in_current_layout_loads_to_identical_columns(self, tmp_path):
        """An archive written field by field with numpy itself, in the
        layout ``FORMAT_VERSION`` 1 defines, loads to the very same
        columns and dtypes."""
        kinds = np.array([KIND_LOAD, 1, 2, KIND_BRANCH_NOT_TAKEN, KIND_LOAD], dtype=np.int8)
        addresses = np.array([64, (1 << 40) + 128, 0x400000, 0x400004, 0], dtype=np.int64)
        gaps = np.array([0, 7, (1 << 31) - 1, 3, 1], dtype=np.int32)
        path = tmp_path / "layout.npz"
        np.savez_compressed(
            path,
            version=np.int64(FORMAT_VERSION),
            name=np.str_("layout"),
            kinds=kinds,
            addresses=addresses,
            gaps=gaps,
        )
        loaded = load_trace(path)
        assert loaded.name == "layout"
        for column, expected in zip(
            (loaded.kinds, loaded.addresses, loaded.gaps), (kinds, addresses, gaps)
        ):
            assert column.dtype == expected.dtype
            np.testing.assert_array_equal(column, expected)

    def test_gap_outside_int32_rejected(self, tmp_path):
        path = tmp_path / "wide.npz"
        np.savez_compressed(
            path,
            version=np.int64(FORMAT_VERSION),
            name=np.str_("wide"),
            kinds=np.zeros(1, dtype=np.int8),
            addresses=np.zeros(1, dtype=np.int64),
            gaps=np.array([1 << 31], dtype=np.int64),
        )
        with pytest.raises(TraceFormatError, match="gaps"):
            load_trace(path)

    def test_file_is_compact(self, tmp_path):
        config = CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64)
        trace = build_workload("lucas", config, accesses=5000)
        path = tmp_path / "lucas.npz"
        save_trace(trace, path)
        bytes_per_record = path.stat().st_size / len(trace)
        assert bytes_per_record < 16


class TestVersioning:
    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez_compressed(
            path,
            version=np.int64(FORMAT_VERSION + 1),
            name=np.str_("x"),
            kinds=np.zeros(1, dtype=np.int8),
            addresses=np.zeros(1, dtype=np.int64),
            gaps=np.zeros(1, dtype=np.int32),
        )
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "ragged.npz"
        np.savez_compressed(
            path,
            version=np.int64(FORMAT_VERSION),
            name=np.str_("x"),
            kinds=np.zeros(2, dtype=np.int8),
            addresses=np.zeros(1, dtype=np.int64),
            gaps=np.zeros(2, dtype=np.int32),
        )
        with pytest.raises(ValueError, match="ragged"):
            load_trace(path)


def _valid_npz(path, **overrides):
    """Write a minimal valid trace archive, with optional bad fields."""
    fields = dict(
        version=np.int64(FORMAT_VERSION),
        name=np.str_("x"),
        kinds=np.zeros(2, dtype=np.int8),
        addresses=np.zeros(2, dtype=np.int64),
        gaps=np.zeros(2, dtype=np.int32),
    )
    fields.update(overrides)
    np.savez_compressed(path, **{k: v for k, v in fields.items()
                                 if v is not None})


class TestCorruptionDetection:
    """Every damaged-file shape raises a typed TraceFormatError."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_trace(tmp_path / "never-written.npz")

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_trace(path)

    def test_truncated_archive(self, tmp_path):
        config = CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64)
        trace = build_workload("ammp", config, accesses=3000)
        path = tmp_path / "ammp.npz"
        save_trace(trace, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_missing_field_named_in_message(self, tmp_path):
        path = tmp_path / "short.npz"
        _valid_npz(path, gaps=None)
        with pytest.raises(TraceFormatError, match="gaps"):
            load_trace(path)

    def test_float_dtype_rejected(self, tmp_path):
        path = tmp_path / "floaty.npz"
        _valid_npz(path, addresses=np.zeros(2, dtype=np.float64))
        with pytest.raises(TraceFormatError, match="dtype"):
            load_trace(path)

    def test_wrong_dimensionality_rejected(self, tmp_path):
        path = tmp_path / "square.npz"
        _valid_npz(path, kinds=np.zeros((2, 2), dtype=np.int8))
        with pytest.raises(TraceFormatError, match="1-D"):
            load_trace(path)

    def test_out_of_range_kind_rejected(self, tmp_path):
        path = tmp_path / "weird-kind.npz"
        _valid_npz(
            path,
            kinds=np.array([KIND_LOAD, KIND_BRANCH_NOT_TAKEN + 1],
                           dtype=np.int8),
        )
        with pytest.raises(TraceFormatError, match="kinds"):
            load_trace(path)

    def test_error_is_a_value_error(self, tmp_path):
        # Callers of the pre-hardening API caught ValueError; the typed
        # error must remain compatible with them.
        assert issubclass(TraceFormatError, ValueError)


class TestAtomicSave:
    def test_no_tmp_files_left_behind(self, tmp_path):
        save_trace(Trace.from_records("t", [(KIND_LOAD, 64, 0)]), tmp_path / "t.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]

    def test_failed_save_leaves_no_file(self, tmp_path):
        class Hostile:
            """Raises while the archive is being written."""
            name = "hostile"
            kinds = np.zeros(1, dtype=np.int8)
            addresses = np.zeros(1, dtype=np.int64)

            @property
            def gaps(self):
                raise RuntimeError("column unavailable")

        with pytest.raises(Exception):
            save_trace(Hostile(), tmp_path / "t.npz")
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(Trace.from_records("first", [(KIND_LOAD, 64, 0)] * 100), path)
        save_trace(Trace.from_records("second", [(KIND_LOAD, 128, 1)]), path)
        loaded = load_trace(path)
        assert loaded.name == "second"
        assert len(loaded) == 1
