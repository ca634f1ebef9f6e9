"""Percentiles, failure accounting and the read-correctness judge."""

import pytest

from metrics import Outcomes, Reference, latency_summary, percentile


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7], 0.99) == 7


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1, 2], 0.0)


def test_latency_summary_counts_samples_beyond_p99():
    samples_ns = [1_000] * 990 + [5_000] * 10
    summary = latency_summary(samples_ns)
    assert summary["count"] == 1_000
    assert summary["p50_us"] == 1.0
    assert summary["p99_us"] == 1.0
    assert summary["p999_us"] == 5.0
    assert summary["beyond_p99"] == 10


def test_error_rate_accounts_failures_against_attempts():
    outcomes = Outcomes()
    assert outcomes.error_rate == 0.0
    outcomes.add_attempts(200)
    outcomes.add_failure("wrong value")
    outcomes.add_failure("ValueError", 3)
    assert outcomes.attempted == 200
    assert outcomes.failed == 4
    assert outcomes.error_rate == 0.02
    assert outcomes.reasons == {"wrong value": 1, "ValueError": 3}


def test_reference_issues_unique_values_and_commits_them():
    reference = Reference(["a", "b"])
    assert reference.values == {"a": -1, "b": -2}
    first, second = reference.issue(), reference.issue()
    # Written values never collide with each other or with any key's
    # initial value, so a read of the wrong key or a stale value differs.
    assert len({first, second, -1, -2}) == 4
    reference.commit("a", first)
    assert reference.values == {"a": first, "b": -2}
