"""Unit tests for the Trace container."""

from repro.workloads.trace import (
    KIND_BRANCH_NOT_TAKEN,
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    KIND_STORE,
    Trace,
)


def sample_trace():
    return Trace.from_records(
        "sample",
        [
            (KIND_LOAD, 0x1000, 3),
            (KIND_BRANCH_TAKEN, 0x400000, 1),
            (KIND_STORE, 0x1040, 0),
            (KIND_BRANCH_NOT_TAKEN, 0x400004, 2),
            (KIND_LOAD, 0x2000, 4),
        ],
    )


class TestCounts:
    def test_instruction_count(self):
        trace = sample_trace()
        # 5 records + gaps 3+1+0+2+4 = 15.
        assert trace.instruction_count == 15

    def test_memory_access_count(self):
        assert sample_trace().memory_access_count() == 3

    def test_store_count(self):
        assert sample_trace().store_count() == 1

    def test_branch_count(self):
        assert sample_trace().branch_count() == 2

    def test_len_and_iter(self):
        trace = sample_trace()
        assert len(trace) == 5
        assert list(trace) == [
            (KIND_LOAD, 0x1000, 3),
            (KIND_BRANCH_TAKEN, 0x400000, 1),
            (KIND_STORE, 0x1040, 0),
            (KIND_BRANCH_NOT_TAKEN, 0x400004, 2),
            (KIND_LOAD, 0x2000, 4),
        ]


class TestFilters:
    def test_memory_records_order(self):
        addresses = [r[1] for r in sample_trace().memory_records()]
        assert addresses == [0x1000, 0x1040, 0x2000]

    def test_branch_records(self):
        kinds = [r[0] for r in sample_trace() if r[0] >= KIND_BRANCH_TAKEN]
        assert kinds == [KIND_BRANCH_TAKEN, KIND_BRANCH_NOT_TAKEN]


class TestFootprint:
    def test_footprint_lines(self):
        # 0x1000 and 0x1040 are different 64B lines; 0x2000 is a third.
        assert sample_trace().footprint_lines(64) == 3
        # With 128B lines, 0x1000 and 0x1040 share one line.
        assert sample_trace().footprint_lines(128) == 2

    def test_block_addresses(self):
        blocks = sample_trace().block_addresses(64)
        assert blocks == [0x1000 >> 6, 0x1040 >> 6, 0x2000 >> 6]

    def test_footprint_rejects_bad_line(self):
        import pytest

        with pytest.raises(ValueError):
            sample_trace().footprint_lines(0)


class TestEmpty:
    def test_empty_trace(self):
        trace = Trace("empty")
        assert trace.instruction_count == 0
        assert trace.memory_access_count() == 0
        assert trace.footprint_lines() == 0


class TestMemoryStream:
    def test_filters_and_flags(self):
        """Branches drop out; loads/stores keep order and write flags."""
        addresses, writes = sample_trace().memory_stream()
        assert addresses == [0x1000, 0x1040, 0x2000]
        assert writes == [False, True, False]

    def test_shapes_match_counts(self):
        trace = sample_trace()
        addresses, writes = trace.memory_stream()
        assert len(addresses) == trace.memory_access_count()
        assert sum(writes) == trace.store_count()

    def test_empty_trace(self):
        assert Trace("empty").memory_stream() == ([], [])
