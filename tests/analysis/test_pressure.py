"""Unit tests for per-set pressure analysis."""

import pytest

from repro.analysis.pressure import (
    DisagreementReport,
    component_disagreement,
    miss_imbalance,
)


class TestMissImbalance:
    def test_uniform_is_zero(self):
        assert miss_imbalance([10, 10, 10, 10]) == pytest.approx(0.0)

    def test_concentrated_is_high(self):
        gini = miss_imbalance([100, 0, 0, 0])
        assert gini > 0.7

    def test_no_misses(self):
        assert miss_imbalance([0, 0, 0]) == 0.0

    def test_order_invariant(self):
        assert miss_imbalance([1, 5, 3]) == miss_imbalance([5, 3, 1])

    def test_monotone_in_concentration(self):
        even = miss_imbalance([25, 25, 25, 25])
        skewed = miss_imbalance([70, 10, 10, 10])
        extreme = miss_imbalance([97, 1, 1, 1])
        assert even < skewed < extreme

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            miss_imbalance([])

    def test_bounded(self):
        assert 0.0 <= miss_imbalance([9, 1, 4, 0, 0, 7]) < 1.0


class TestDisagreement:
    def test_counts(self):
        report = component_disagreement([1, 5, 3, 0], [2, 2, 3, 0])
        assert report.prefer_first == 1  # set 0
        assert report.prefer_second == 1  # set 1
        assert report.indifferent == 2

    def test_disagreement_fraction(self):
        report = DisagreementReport(prefer_first=3, prefer_second=1,
                                    indifferent=4)
        assert report.disagreement == pytest.approx(0.25)

    def test_unanimous_is_zero(self):
        report = DisagreementReport(prefer_first=5, prefer_second=0,
                                    indifferent=3)
        assert report.disagreement == 0.0

    def test_no_opinions(self):
        report = DisagreementReport(0, 0, 8)
        assert report.disagreement == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            component_disagreement([1, 2], [1])

    def test_from_real_adaptive_run(self, small_config):
        """ammp's set-dependent first phase must produce real per-set
        disagreement between the components — the precondition for
        beating both, per Section 2.5."""
        from repro.cache.cache import SetAssociativeCache
        from repro.core.multi import make_adaptive
        from repro.workloads.suite import build_workload

        policy = make_adaptive(small_config.num_sets, small_config.ways)
        cache = SetAssociativeCache(small_config, policy)
        trace = build_workload("ammp", small_config, accesses=15_000)
        for kind, address, _gap in trace.memory_records():
            cache.access(address, is_write=(kind == 1))
        report = component_disagreement(
            policy.shadows[0].per_set_misses,
            policy.shadows[1].per_set_misses,
        )
        assert report.prefer_first > 0
        assert report.prefer_second > 0
