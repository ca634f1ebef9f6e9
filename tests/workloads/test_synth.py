"""Unit tests for the synthetic address-pattern primitives."""

import pytest

from repro.workloads.synth import (
    drifting_working_set,
    linear_loop,
    pointer_chase,
    scan_with_hot,
    strided_sweep,
    working_set,
    zipf_stream,
)


class TestLinearLoop:
    def test_wraps(self):
        assert linear_loop(3, 7) == [0, 1, 2, 0, 1, 2, 0]

    def test_footprint(self):
        stream = linear_loop(50, 500)
        assert set(stream) == set(range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_loop(0, 10)


class TestWorkingSet:
    def test_bounded(self):
        stream = working_set(20, 1000, seed=1)
        assert all(0 <= line < 20 for line in stream)

    def test_deterministic(self):
        assert working_set(20, 500, seed=2) == working_set(20, 500, seed=2)

    def test_locality_concentrates_reuse(self):
        plain = working_set(1000, 5000, seed=3, locality=0.0)
        local = working_set(1000, 5000, seed=3, locality=0.8)
        # Immediate reuse (distance <= 4 distinct) should be far more
        # common with locality on; count adjacent repeats of recents.
        def short_reuses(stream):
            count = 0
            recent = []
            for line in stream:
                if line in recent:
                    count += 1
                recent.append(line)
                if len(recent) > 4:
                    recent.pop(0)
            return count

        assert short_reuses(local) > 3 * short_reuses(plain)

    def test_validation(self):
        with pytest.raises(ValueError):
            working_set(10, 10, locality=1.0)


class TestDriftingWorkingSet:
    def test_drifts_forward(self):
        stream = drifting_working_set(10, 10_000, drift_per_kaccess=50.0,
                                      seed=4)
        early_max = max(stream[:500])
        late_min_base = min(stream[-500:])
        assert late_min_base > early_max - 10

    def test_zero_drift_is_stationary(self):
        stream = drifting_working_set(10, 2000, drift_per_kaccess=0.0, seed=5)
        assert max(stream) < 10

    def test_validation(self):
        with pytest.raises(ValueError):
            drifting_working_set(10, 10, drift_per_kaccess=-1.0)


class TestZipf:
    def test_skew(self):
        from collections import Counter

        stream = zipf_stream(1000, 20_000, alpha=1.2, seed=6)
        counts = Counter(stream).most_common()
        top_share = sum(c for _, c in counts[:10]) / len(stream)
        assert top_share > 0.25  # top-1% of lines take >25% of accesses

    def test_higher_alpha_more_skew(self):
        from collections import Counter

        def top_share(alpha):
            stream = zipf_stream(1000, 20_000, alpha=alpha, seed=7)
            counts = Counter(stream).most_common()
            return sum(c for _, c in counts[:10]) / len(stream)

        assert top_share(1.6) > top_share(0.8)

    def test_shuffling_spreads_hot_lines(self):
        from collections import Counter

        shuffled = zipf_stream(1000, 10_000, seed=8)
        # Without shuffling the hottest line would be line 0.
        assert Counter(shuffled).most_common(1)[0][0] != 0

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_stream(100, 10, alpha=0)


class TestScanWithHot:
    def test_regions_disjoint(self):
        stream = scan_with_hot(10, 100, 2000, hot_fraction=0.5, seed=9)
        hot = [line for line in stream if line < 10]
        scan = [line for line in stream if line >= 10]
        assert all(10 <= line < 110 for line in scan)
        assert 0.4 < len(hot) / len(stream) < 0.6

    def test_scan_is_single_pass_until_wrap(self):
        stream = scan_with_hot(4, 10_000, 3000, hot_fraction=0.5, seed=10)
        scan_lines = [line for line in stream if line >= 4]
        assert len(set(scan_lines)) == len(scan_lines)  # no reuse

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_with_hot(10, 10, 10, hot_fraction=1.0)


class TestPointerChase:
    def test_visits_multiple_nodes(self):
        stream = pointer_chase(100, 2000, seed=11)
        assert len(set(stream)) > 10

    def test_node_spacing(self):
        stream = pointer_chase(50, 1000, seed=12)
        assert set(stream) <= set(range(50))

    def test_deterministic(self):
        assert pointer_chase(64, 500, seed=13) == pointer_chase(64, 500,
                                                                seed=13)

    def test_validation(self):
        with pytest.raises(ValueError):
            pointer_chase(0, 10)


class TestStridedSweep:
    def test_stride(self):
        assert strided_sweep(10, 3, 5) == [0, 3, 6, 9, 2]

    def test_wraps_within_footprint(self):
        stream = strided_sweep(100, 7, 1000)
        assert all(0 <= line < 100 for line in stream)

    def test_validation(self):
        with pytest.raises(ValueError):
            strided_sweep(10, 0, 5)
