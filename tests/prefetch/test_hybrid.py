"""Unit tests for the adaptive hybrid prefetcher."""

import pytest

from repro.core.history import BitVectorHistory
from repro.prefetch.base import PrefetchRequest, Prefetcher
from repro.prefetch.hybrid import AdaptiveHybridPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.stride import StridePrefetcher


class ConstantPrefetcher(Prefetcher):
    """Always proposes block+offset; for driving the selector."""

    def __init__(self, name, offset):
        self.name = name
        self.offset = offset

    def observe(self, block, was_hit):
        return [PrefetchRequest(block + self.offset, self.name)]


def make_hybrid(probation=0, window=8):
    hybrid = AdaptiveHybridPrefetcher(
        [ConstantPrefetcher("a", 1), ConstantPrefetcher("b", 100)]
    )
    hybrid.history = BitVectorHistory(2, window=window)
    hybrid.probation = probation
    return hybrid


class TestConstruction:
    def test_needs_two_components(self):
        with pytest.raises(ValueError, match="at least 2"):
            AdaptiveHybridPrefetcher([NextLinePrefetcher()])

    def test_unique_names_required(self):
        with pytest.raises(ValueError, match="unique"):
            AdaptiveHybridPrefetcher(
                [NextLinePrefetcher(), NextLinePrefetcher()]
            )

    def test_name(self):
        hybrid = AdaptiveHybridPrefetcher(
            [NextLinePrefetcher(), StridePrefetcher()]
        )
        assert hybrid.name == "adaptive(nextline+stride)"


class TestProbation:
    def test_probation_issues_all(self):
        hybrid = make_hybrid(probation=2)
        first = hybrid.observe(0, False)
        assert {r.source for r in first} == {"a", "b"}
        hybrid.observe(1, False)
        third = hybrid.observe(2, False)  # past probation
        assert len({r.source for r in third}) == 1


class TestSelection:
    def test_defaults_to_first_component(self):
        hybrid = make_hybrid()
        assert hybrid.selected_component() == 0
        requests = hybrid.observe(0, False)
        assert all(r.source == "a" for r in requests)

    def test_useless_outcomes_flip_selection(self):
        hybrid = make_hybrid()
        for _ in range(4):
            hybrid.record_outcome(PrefetchRequest(0, "a"), useful=False)
        assert hybrid.selected_component() == 1
        requests = hybrid.observe(0, False)
        assert all(r.source == "b" for r in requests)

    def test_useful_outcomes_reinforce(self):
        hybrid = make_hybrid()
        for _ in range(4):
            hybrid.record_outcome(PrefetchRequest(0, "a"), useful=True)
        assert hybrid.selected_component() == 0

    def test_selection_recovers(self):
        """Sliding window: old uselessness is forgotten."""
        hybrid = make_hybrid(window=4)
        for _ in range(4):
            hybrid.record_outcome(PrefetchRequest(0, "a"), useful=False)
        assert hybrid.selected_component() == 1
        for _ in range(4):
            hybrid.record_outcome(PrefetchRequest(0, "b"), useful=False)
        assert hybrid.selected_component() == 0

    def test_unknown_source_ignored(self):
        hybrid = make_hybrid()
        hybrid.record_outcome(PrefetchRequest(0, "zeta"), useful=False)
        assert hybrid.selected_component() == 0


class TestTraining:
    def test_all_components_stay_trained(self):
        """Even unselected components observe every access, so they are
        ready the moment selection swings to them."""
        nextline = NextLinePrefetcher(degree=1)
        stride = StridePrefetcher()
        stride.degree = 1
        hybrid = AdaptiveHybridPrefetcher([nextline, stride])
        hybrid.probation = 0
        # Selection starts at nextline, but feed a strided pattern.
        for block in (0, 4, 8, 12, 16):
            hybrid.observe(block, False)
        # Flip selection to stride: it must already know the stride.
        for _ in range(4):
            hybrid.record_outcome(PrefetchRequest(0, "nextline"),
                                  useful=False)
        requests = hybrid.observe(20, False)
        assert [r.block for r in requests] == [24]
        assert all(r.source == "stride" for r in requests)
