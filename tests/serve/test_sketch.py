"""Differential tests: the latency sketch versus exact sorted quantiles.

Satellite of the serving PR: the percentile sketch is only trustworthy
if its bounded-relative-error guarantee holds on *adversarial*
distributions — bimodal mixtures (mass walls right where p99 lands),
heavy tails (orders of magnitude between p50 and p999), and degenerate
all-equal samples — not just on friendly unimodal data.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from repro.serve.sketch import LatencySketch, exact_quantile
from repro.utils.rng import DeterministicRNG
from tests.strategies import latency_samples

#: The quantiles the serving report actually publishes.
REPORT_QUANTILES = (0.5, 0.9, 0.99, 0.999)


def assert_within_relative(sketch: LatencySketch, values, quantiles):
    """The sketch's guarantee, checked against the exact reference."""
    for q in quantiles:
        exact = exact_quantile(values, q)
        estimate = sketch.quantile(q)
        bound = sketch.relative_error * exact + sketch.min_value
        assert abs(estimate - exact) <= bound, (
            f"q={q}: |{estimate} - {exact}| > {bound}"
        )


def sketched(values):
    sketch = LatencySketch()
    for value in values:
        sketch.add(value)
    return sketch


class TestAdversarialDistributions:
    def test_bimodal_fast_path_slow_path(self):
        # 99% fast hits near 1 ms, 1% slow misses near 1 s: p99 sits
        # exactly on the cliff between the modes.
        rng = DeterministicRNG(7)
        values = []
        for _ in range(20_000):
            if rng.random() < 0.99:
                values.append(0.001 * (1.0 + 0.2 * rng.random()))
            else:
                values.append(1.0 * (1.0 + 0.2 * rng.random()))
        assert_within_relative(sketched(values), values, REPORT_QUANTILES)

    def test_heavy_tail_pareto(self):
        # Pareto(alpha=1.2): p999 is orders of magnitude beyond p50.
        rng = DeterministicRNG(11)
        values = [
            0.001 * (1.0 - rng.random()) ** (-1.0 / 1.2)
            for _ in range(20_000)
        ]
        assert exact_quantile(values, 0.999) > 50 * exact_quantile(values, 0.5)
        assert_within_relative(sketched(values), values, REPORT_QUANTILES)

    def test_all_equal_collapses_to_the_value(self):
        values = [0.0421] * 5_000
        sketch = sketched(values)
        for q in REPORT_QUANTILES:
            # Clamping to the observed range makes this *exact*.
            assert sketch.quantile(q) == pytest.approx(0.0421, rel=1e-12)

    def test_all_zero_uses_the_zero_bucket(self):
        sketch = sketched([0.0] * 1_000)
        assert sketch.quantile(0.5) <= sketch.min_value
        assert sketch.quantile(0.999) <= sketch.min_value

    def test_mixture_of_zeros_and_spikes(self):
        values = [0.0] * 900 + [2.5] * 100
        sketch = sketched(values)
        assert sketch.quantile(0.5) <= sketch.min_value
        assert sketch.quantile(0.95) == pytest.approx(2.5, rel=0.01)

    def test_geometric_ladder_hits_every_bucket(self):
        values = [2.0 ** exponent for exponent in range(-20, 11)]
        assert_within_relative(sketched(values), values, REPORT_QUANTILES)

    def test_single_value(self):
        sketch = sketched([0.017])
        for q in (0.0, 0.5, 1.0):
            assert sketch.quantile(q) == pytest.approx(0.017, rel=1e-12)


class TestGuaranteeProperty:
    @settings(max_examples=60, deadline=None)
    @given(latency_samples(min_size=1, max_size=300))
    def test_relative_error_bound_on_arbitrary_samples(self, values):
        sketch = sketched(values)
        assert_within_relative(sketch, values, REPORT_QUANTILES)
        assert len(sketch) == len(values)
        assert sketch.mean == pytest.approx(
            math.fsum(values) / len(values), rel=1e-9, abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(latency_samples(min_size=2, max_size=200))
    def test_extremes_stay_inside_observed_range(self, values):
        # Clamping: no estimate may leave the recorded sample's range,
        # and the extremes obey the same relative-error bound.
        sketch = sketched(values)
        for q in (0.0, 1.0):
            estimate = sketch.quantile(q)
            assert min(values) <= estimate <= max(values) or (
                estimate <= sketch.min_value
            )
        assert_within_relative(sketch, values, (0.0, 1.0))



class TestExactQuantile:
    def test_lower_nearest_rank_convention(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert exact_quantile(values, 0.0) == 10.0
        assert exact_quantile(values, 0.5) == 20.0  # rank int(0.5*3) = 1
        assert exact_quantile(values, 1.0) == 40.0

    def test_order_independent(self):
        assert exact_quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match="quantile"):
            exact_quantile([1.0], 1.5)
        with pytest.raises(ValueError, match="no values"):
            exact_quantile([], 0.5)


class TestSketchContract:
    def test_rejects_bad_values(self):
        sketch = LatencySketch()
        with pytest.raises(ValueError, match="finite"):
            sketch.add(-1.0)
        with pytest.raises(ValueError, match="finite"):
            sketch.add(math.nan)
        with pytest.raises(ValueError, match="finite"):
            sketch.add(math.inf)

    def test_empty_sketch_refuses_quantiles(self):
        with pytest.raises(ValueError, match="empty"):
            LatencySketch().quantile(0.5)

    def test_quantile_range_validated(self):
        sketch = sketched([1.0])
        with pytest.raises(ValueError, match="quantile"):
            sketch.quantile(-0.1)

    def test_quantiles_batch_matches_singles(self):
        sketch = sketched([float(i) for i in range(1, 100)])
        batch = sketch.quantiles(REPORT_QUANTILES)
        assert batch == [sketch.quantile(q) for q in REPORT_QUANTILES]

    def test_repr_mentions_count(self):
        assert "count=3" in repr(sketched([1.0, 2.0, 3.0]))
