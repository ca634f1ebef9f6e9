"""Tests for the skewed-vs-adaptive orthogonality experiment."""

import pytest

from repro.experiments.base import make_setup
from tests.experiments.helpers import row_by_label, run_experiment


@pytest.fixture(scope="module")
def result():
    return run_experiment("ext-skew", make_setup("mini", accesses=10_000))


class TestExtSkew:
    def test_rows(self, result):
        assert [row[0] for row in result.rows] == [
            "conflict (stride=sets)", "policy (hot+scan)", "mixed",
        ]

    def test_conflict_stream_shape(self, result):
        row = row_by_label(result, "conflict (stride=sets)")
        lru, adaptive, skewed, fa = row[1:]
        # Replacement cannot fix conflicts; indexing can.
        assert adaptive > 0.9 * lru
        assert skewed < 0.3 * lru
        assert fa < 0.3 * lru

    def test_policy_stream_shape(self, result):
        row = row_by_label(result, "policy (hot+scan)")
        lru, adaptive, skewed, fa = row[1:]
        # Indexing cannot fix policy misses; adaptivity can.
        assert adaptive < 0.95 * lru
        assert skewed > 0.9 * lru
        assert fa > 0.9 * lru

    def test_mixed_stream_each_helps_its_half(self, result):
        row = row_by_label(result, "mixed")
        lru, adaptive, skewed, _fa = row[1:]
        assert adaptive < lru
        assert skewed < lru

    def test_all_ratios_valid(self, result):
        for row in result.rows:
            assert all(0.0 <= value <= 1.0 for value in row[1:])
