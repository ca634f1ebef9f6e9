"""Unit tests for the miss history buffers."""

import pytest

from repro.core.history import (
    BitVectorHistory,
    CounterHistory,
    SaturatingCounterHistory,
    make_history_factory,
)


class TestDecisiveness:
    """Only some-but-not-all miss events carry information (Section 2.2)."""

    @pytest.mark.parametrize(
        "cls", [CounterHistory, SaturatingCounterHistory, BitVectorHistory]
    )
    def test_all_miss_not_recorded(self, cls):
        history = cls(2)
        assert not history.record([True, True])
        assert history.misses(0) == 0
        assert history.misses(1) == 0

    @pytest.mark.parametrize(
        "cls", [CounterHistory, SaturatingCounterHistory, BitVectorHistory]
    )
    def test_no_miss_not_recorded(self, cls):
        history = cls(2)
        assert not history.record([False, False])
        assert history.misses(0) == 0

    @pytest.mark.parametrize(
        "cls", [CounterHistory, SaturatingCounterHistory, BitVectorHistory]
    )
    def test_exclusive_miss_recorded(self, cls):
        history = cls(2)
        assert history.record([True, False])
        assert history.misses(0) == 1
        assert history.misses(1) == 0

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            CounterHistory(2).record([True])

    def test_needs_two_components(self):
        with pytest.raises(ValueError):
            CounterHistory(1)


class TestBestComponent:
    def test_tie_favours_first(self):
        history = CounterHistory(2)
        assert history.best_component() == 0
        history.record([True, False])
        history.record([False, True])
        assert history.best_component() == 0

    def test_tracks_minimum(self):
        history = CounterHistory(3)
        history.record([True, False, True])
        history.record([True, True, False])
        assert history.misses(0) == 2
        assert history.best_component() == 1  # 1 has one miss, 2 has one
        history.record([False, True, True])
        # All three components now tie at 2 misses -> lowest index wins.
        assert history.best_component() == 0


class TestBitVectorWindow:
    def test_window_capacity(self):
        history = BitVectorHistory(2, window=4)
        for _ in range(10):
            history.record([True, False])
        assert history.misses(0) == 4
        assert len(history.state_dict()["events"]) == 4

    def test_old_events_forgotten(self):
        """The defining property: adaptation to *recent* behaviour."""
        history = BitVectorHistory(2, window=4)
        for _ in range(4):
            history.record([True, False])  # component 0 misses
        assert history.best_component() == 1
        for _ in range(4):
            history.record([False, True])  # behaviour flips
        assert history.misses(0) == 0
        assert history.misses(1) == 4
        assert history.best_component() == 0

    def test_partial_window_transition(self):
        history = BitVectorHistory(2, window=4)
        for _ in range(3):
            history.record([True, False])
        history.record([False, True])
        history.record([False, True])
        # Window now holds [0-miss, 0-miss, 1-miss, 1-miss].
        assert history.misses(0) == 2
        assert history.misses(1) == 2

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            BitVectorHistory(2, window=0)


class TestSaturatingCounters:
    def test_halving_preserves_order(self):
        history = SaturatingCounterHistory(2, bits=3)  # saturates above 7
        for _ in range(6):
            history.record([True, False])
        history.record([False, True])
        history.record([True, False])
        history.record([True, False])  # 8 > 7 -> halve: [4, 0]
        assert history.misses(0) == 4
        assert history.misses(1) == 0
        assert history.best_component() == 1

    def test_counts_stay_bounded(self):
        history = SaturatingCounterHistory(2, bits=4)
        for _ in range(1000):
            history.record([True, False])
        assert history.misses(0) <= 15 + 1

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            SaturatingCounterHistory(2, bits=0)


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_history_factory("counter")(2), CounterHistory)
        assert isinstance(
            make_history_factory("saturating", bits=4)(2),
            SaturatingCounterHistory,
        )
        factory = make_history_factory("bitvector", window=16)
        history = factory(3)
        assert isinstance(history, BitVectorHistory)
        assert history.window == 16
        assert history.num_components == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown history kind"):
            make_history_factory("lstm")
