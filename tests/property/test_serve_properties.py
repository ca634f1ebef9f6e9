"""Property tests: open-loop load-generator determinism and statistics.

Satellite of the serving PR. Two families of invariants:

* **determinism** — a spec and seed fully determine the stream:
  re-iteration, chunked consumption and interleaved consumption all
  yield bit-identical arrival times, keys, ops and client ids;
* **statistical sanity** — the generators actually have the marginals
  they claim: exponential inter-arrivals with mean ``1/rate``, a Zipf
  rank-frequency slope near ``-alpha``, MMPP burst intensity above the
  base rate, beta client weights forming a distribution.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings

from repro.utils.rng import DeterministicRNG
from repro.workloads.keystreams import (
    YCSB_MIXES,
    StreamSpec,
    ZipfSampler,
    beta_client_weights,
    mmpp_arrivals,
    poisson_arrivals,
)
from tests.strategies import stream_specs


def take(spec, count):
    """The first ``count`` requests of ``spec``'s stream."""
    return list(itertools.islice(spec.requests(), count))


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(stream_specs())
    def test_reiteration_is_bit_identical(self, spec):
        assert take(spec, 80) == take(spec, 80)

    @settings(max_examples=40, deadline=None)
    @given(stream_specs())
    def test_chunked_consumption_matches_straight_run(self, spec):
        straight = take(spec, 90)
        # Consume a *fresh* iterator in ragged chunks: the chunking
        # must be invisible in the events.
        chunked = []
        iterator = spec.requests()
        for size in (1, 7, 2, 30, 50):
            chunked.extend(itertools.islice(iterator, size))
        assert chunked == straight

    @settings(max_examples=30, deadline=None)
    @given(stream_specs())
    def test_interleaved_iterators_do_not_interfere(self, spec):
        # Two live iterators over the same spec advance independently.
        one, two = spec.requests(), spec.requests()
        merged_one = []
        merged_two = []
        for _ in range(40):
            merged_one.append(next(one))
            merged_two.append(next(two))
        assert merged_one == merged_two == take(spec, 40)

    @settings(max_examples=30, deadline=None)
    @given(stream_specs())
    def test_arrivals_strictly_increase(self, spec):
        times = [request.at for request in take(spec, 120)]
        assert all(later > earlier
                   for earlier, later in zip(times, times[1:]))
        assert times[0] > 0.0

    @settings(max_examples=30, deadline=None)
    @given(stream_specs())
    def test_events_are_well_formed(self, spec):
        ops = {name for name, _fraction in YCSB_MIXES[spec.mix]}
        for request in take(spec, 100):
            assert request.op in ops
            assert 0 <= request.client < spec.clients
            assert request.key.startswith("r:")

    def test_different_seeds_differ(self):
        base = StreamSpec(rate=200.0, seed=0)
        other = StreamSpec(rate=200.0, seed=1)
        assert take(base, 50) != take(other, 50)


class TestStatisticalSanity:
    def test_poisson_interarrival_mean_is_one_over_rate(self):
        rate = 250.0
        times = list(itertools.islice(poisson_arrivals(rate, seed=2),
                                      20_000))
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        # Standard error of the mean is (1/rate)/sqrt(n) ~ 0.7%.
        assert mean == pytest.approx(1.0 / rate, rel=0.05)

    def test_poisson_interarrival_cv_is_one(self):
        # Exponential gaps: coefficient of variation 1 (the open-loop
        # burstiness a uniform clock would not have).
        times = list(itertools.islice(poisson_arrivals(100.0, seed=3),
                                      20_000))
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        assert math.sqrt(var) / mean == pytest.approx(1.0, rel=0.1)

    def test_zipf_rank_frequency_slope(self):
        alpha = 1.0
        sampler = ZipfSampler(universe=200, alpha=alpha)
        rng = DeterministicRNG(5).fork(23)
        counts = [0] * 200
        draws = 60_000
        for _ in range(draws):
            counts[sampler.sample(rng)] += 1
        # Log-log regression over the well-populated head: the slope
        # of frequency vs rank+1 must be near -alpha.
        points = [
            (math.log(rank + 1), math.log(count))
            for rank, count in enumerate(counts[:50]) if count > 0
        ]
        n = len(points)
        mean_x = sum(x for x, _y in points) / n
        mean_y = sum(y for _x, y in points) / n
        slope = (
            sum((x - mean_x) * (y - mean_y) for x, y in points)
            / sum((x - mean_x) ** 2 for x, _y in points)
        )
        assert slope == pytest.approx(-alpha, abs=0.15)

    def test_zipf_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(universe=16, alpha=0.0)
        rng = DeterministicRNG(6).fork(23)
        counts = [0] * 16
        for _ in range(32_000):
            counts[sampler.sample(rng)] += 1
        expected = 32_000 / 16
        for count in counts:
            assert count == pytest.approx(expected, rel=0.15)

    def test_mmpp_bursts_faster_than_base(self):
        rate, burst_rate = 50.0, 2000.0
        times = list(itertools.islice(
            mmpp_arrivals(rate, burst_rate, seed=7,
                          mean_dwell=1.0, burst_dwell=0.5),
            30_000,
        ))
        gaps = sorted(b - a for a, b in zip(times, times[1:]))
        # A bimodal gap distribution: the fast mode near 1/burst_rate,
        # the slow tail near 1/rate — far more than one decade apart.
        fast = gaps[len(gaps) // 4]
        slow = gaps[int(len(gaps) * 0.97)]
        assert slow > 10 * fast
        # Overall intensity sits strictly between the two rates.
        overall = len(times) / times[-1]
        assert rate < overall < burst_rate

    def test_beta_weights_form_a_distribution(self):
        weights = beta_client_weights(64, 2.0, 5.0, seed=9)
        assert len(weights) == 64
        assert sum(weights) == pytest.approx(1.0, rel=1e-9)
        assert all(w > 0 for w in weights)
        # Beta(2, 5) is right-skewed: the heaviest client well above
        # the mean share.
        assert max(weights) > 2.0 / 64

    def test_client_assignment_tracks_weights(self):
        spec = StreamSpec(rate=500.0, clients=8, seed=11)
        weights = beta_client_weights(8, 2.0, 5.0, seed=11)
        counts = [0] * 8
        events = take(spec, 20_000)
        for request in events:
            counts[request.client] += 1
        shares = [count / len(events) for count in counts]
        for share, weight in zip(shares, weights):
            assert share == pytest.approx(weight, abs=0.02)

    def test_ycsb_mix_fractions(self):
        spec = StreamSpec(rate=500.0, mix="A", seed=13)
        events = take(spec, 10_000)
        reads = sum(1 for r in events if r.op == "read")
        assert reads / len(events) == pytest.approx(0.5, abs=0.03)

    def test_read_latest_skews_to_new_keys(self):
        # YCSB D: after enough inserts, reads concentrate on the
        # newest keys (the inserted ones), not the initial universe.
        spec = StreamSpec(rate=500.0, mix="D", seed=17)
        events = take(spec, 20_000)
        inserted = sum(1 for r in events if r.op == "insert")
        assert inserted > 0
        late_reads = [r for r in events[-2_000:] if r.op == "read"]
        new_reads = sum(1 for r in late_reads
                        if r.key.partition(":")[2].startswith("new"))
        assert new_reads / len(late_reads) > 0.5
