"""Unit tests for the extracted adaptation selectors."""

import pytest

from repro.core.history import BitVectorHistory, CounterHistory
from repro.core.selector import GlobalSelector, PolicySelector


class TestPolicySelector:
    def test_defaults_to_bitvector_history(self):
        selector = PolicySelector()
        assert isinstance(selector.history, BitVectorHistory)
        assert selector.history.num_components == 2
        assert selector.best_component() == 0

    def test_tracks_best_component(self):
        selector = PolicySelector()
        for _ in range(4):
            selector.record([True, False])  # component 0 misses
        assert selector.best_component() == 1

    def test_indecisive_events_ignored(self):
        selector = PolicySelector()
        assert not selector.record([False, False])
        assert not selector.record([True, True])
        assert selector.record([True, False])
        assert selector.best_component() == 1

    def test_switch_counting(self):
        selector = PolicySelector()
        assert selector.switches == 0
        selector.record([True, False])  # best flips 0 -> 1
        assert selector.switches == 1
        selector.record([True, False])  # still 1: no new switch
        assert selector.switches == 1
        for _ in range(8):
            selector.record([False, True])  # flips back to 0
        assert selector.switches == 2

    def test_accepts_injected_history(self):
        selector = PolicySelector(history=CounterHistory(3))
        assert selector.history.num_components == 3
        selector.record([True, False, True])
        assert selector.best_component() == 1


class TestGlobalSelector:
    def test_starts_neutral_at_midpoint(self):
        selector = GlobalSelector(bits=4)
        assert selector.value == 8
        assert selector.max_value == 15
        assert selector.selected() == 0

    def test_bits_validated(self):
        with pytest.raises(ValueError, match="psel_bits"):
            GlobalSelector(bits=1)

    def test_votes_move_toward_hitting_component(self):
        selector = GlobalSelector(bits=4)
        assert selector.vote([True, False])  # 0 missed: favour 1
        assert selector.selected() == 1
        for _ in range(2):
            selector.vote([False, True])
        assert selector.selected() == 0

    def test_ties_are_not_votes(self):
        selector = GlobalSelector(bits=4)
        assert not selector.vote([False, False])
        assert not selector.vote([True, True])
        assert selector.value == 8

    def test_saturates(self):
        selector = GlobalSelector(bits=2)
        for _ in range(20):
            selector.vote([True, False])
        assert selector.value == selector.max_value
        for _ in range(20):
            selector.vote([False, True])
        assert selector.value == 0

    def test_requires_two_components(self):
        with pytest.raises(ValueError, match="exactly 2"):
            GlobalSelector().vote([True, False, False])

    def test_switch_counting(self):
        selector = GlobalSelector(bits=3)
        selector.vote([True, False])
        assert selector.switches == 1
        selector.vote([False, True])
        assert selector.switches == 2

    def test_set_value_clamps(self):
        selector = GlobalSelector(bits=4)
        selector.set_value(999)
        assert selector.value == 15
        selector.set_value(-5)
        assert selector.value == 0
