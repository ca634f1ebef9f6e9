"""Unit tests for metric aggregation."""

import pytest

from repro.analysis.metrics import (
    arithmetic_mean,
    percent_reduction,
    summarize_policy_metric,
)


class TestMean:
    def test_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_single(self):
        assert arithmetic_mean([5.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])


class TestPercent:
    def test_reduction(self):
        assert percent_reduction(10.0, 8.0) == pytest.approx(20.0)

    def test_negative_when_worse(self):
        assert percent_reduction(10.0, 11.0) == pytest.approx(-10.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            percent_reduction(0.0, 1.0)


class TestSummarize:
    def test_summary(self):
        table = {
            "w1": {"LRU": 10.0, "Adaptive": 8.0},
            "w2": {"LRU": 20.0, "Adaptive": 21.0},
        }
        summary = summarize_policy_metric(table, "LRU", "Adaptive")
        assert summary["avg_LRU"] == pytest.approx(15.0)
        assert summary["avg_Adaptive"] == pytest.approx(14.5)
        assert summary["avg_reduction_percent"] == pytest.approx(
            100 * 0.5 / 15
        )
        # w2 degraded by 5%.
        assert summary["worst_degradation_percent"] == pytest.approx(5.0)

    def test_no_degradation(self):
        table = {"w": {"LRU": 10.0, "Adaptive": 9.0}}
        summary = summarize_policy_metric(table, "LRU", "Adaptive")
        assert summary["worst_degradation_percent"] == 0.0
