"""Unit tests for the Section 3.2 storage model — exact paper numbers."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.overhead import StorageModel


@pytest.fixture
def paper_model():
    return StorageModel(
        CacheConfig(size_bytes=512 * 1024, ways=8, line_bytes=64)
    )


class TestPaperNumbers:
    """Every number here is quoted in Section 3.2 / 4.7 of the paper."""

    def test_conventional_544kb(self, paper_model):
        assert paper_model.conventional_total_kb() == pytest.approx(544.0)

    def test_full_tag_adaptive_598kb(self, paper_model):
        assert paper_model.adaptive_total_kb() == pytest.approx(598.0)

    def test_full_tag_overhead_9_9_percent(self, paper_model):
        assert paper_model.adaptive_overhead_percent() == pytest.approx(
            9.9, abs=0.1
        )

    def test_parallel_array_28kb_full(self, paper_model):
        assert paper_model.parallel_array_kb() == pytest.approx(28.0)

    def test_parallel_array_12kb_8bit(self, paper_model):
        assert paper_model.parallel_array_kb(8) == pytest.approx(12.0)

    def test_history_1kb(self, paper_model):
        assert paper_model.history_kb() == pytest.approx(1.0)

    def test_lru_dedup_3kb(self, paper_model):
        assert paper_model.lru_dedup_kb() == pytest.approx(3.0)

    def test_8bit_partial_566kb(self, paper_model):
        assert paper_model.adaptive_total_kb(8) == pytest.approx(566.0)

    def test_8bit_overhead_4_percent(self, paper_model):
        assert paper_model.adaptive_overhead_percent(8) == pytest.approx(
            4.0, abs=0.1
        )

    def test_128byte_lines_2_1_percent(self):
        model = StorageModel(
            CacheConfig(size_bytes=512 * 1024, ways=8, line_bytes=128)
        )
        assert model.adaptive_overhead_percent(8) == pytest.approx(2.1, abs=0.1)

    def test_sbar_0_16_percent(self, paper_model):
        assert paper_model.sbar_overhead_percent(16) == pytest.approx(
            0.16, abs=0.01
        )

    def test_sbar_partial_below_0_1_percent(self, paper_model):
        assert paper_model.sbar_overhead_percent(16, 8) < 0.1


class TestScaling:
    def test_two_parallel_arrays(self, paper_model):
        assert paper_model.adaptive_total_kb(8) == pytest.approx(
            paper_model.conventional_total_kb()
            + 2 * paper_model.parallel_array_kb(8)
            + paper_model.history_kb()
            - paper_model.lru_dedup_kb()
        )

    def test_partial_cheaper_than_full(self, paper_model):
        for bits in (4, 6, 8, 10, 12):
            assert paper_model.adaptive_total_kb(bits) < \
                paper_model.adaptive_total_kb()

    def test_narrower_tags_cheaper(self, paper_model):
        totals = [paper_model.adaptive_total_kb(b) for b in (12, 10, 8, 6, 4)]
        assert totals == sorted(totals, reverse=True)


class TestValidation:
    def test_rejects_bad_leader_counts(self, paper_model):
        with pytest.raises(ValueError):
            paper_model.sbar_total_kb(0)
        with pytest.raises(ValueError):
            paper_model.sbar_total_kb(4096)

    def test_rejects_nonpositive_tag_bits(self, paper_model):
        with pytest.raises(ValueError):
            paper_model.parallel_array_kb(0)
