"""Unit tests for fault plans and specs."""

import pytest

from repro.faults.plan import ALL_SITES, FaultLog, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_valid_spec(self):
        spec = FaultSpec("shadow-tags", 0.01, start=10, stop=100, bits=2)
        assert spec.active_at(10)
        assert spec.active_at(99)
        assert not spec.active_at(9)
        assert not spec.active_at(100)

    def test_open_ended_window(self):
        spec = FaultSpec("history", 0.5)
        assert spec.active_at(0)
        assert spec.active_at(10**9)

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("psel", 0.1)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("history", -0.1)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("history", 1.5)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultSpec("history", 0.1, start=-1)
        with pytest.raises(ValueError, match="stop"):
            FaultSpec("history", 0.1, start=5, stop=5)

    def test_bad_bits_and_mode(self):
        with pytest.raises(ValueError, match="bits"):
            FaultSpec("shadow-tags", 0.1, bits=0)
        with pytest.raises(ValueError, match="history mode"):
            FaultSpec("history", 0.1, mode="melt")


class TestFaultPlan:
    def test_uniform_covers_all_sites(self):
        plan = FaultPlan.uniform(0.05)
        assert {spec.site for spec in plan.specs} == set(ALL_SITES)
        assert all(spec.rate == 0.05 for spec in plan.specs)

    def test_uniform_specs_take_the_default_shape(self):
        plan = FaultPlan.uniform(0.1, seed=3)
        assert plan.seed == 3
        assert all(spec == FaultSpec(spec.site, 0.1) for spec in plan.specs)

    def test_specs_normalized_to_tuple(self):
        plan = FaultPlan(specs=[FaultSpec("history", 0.1)])
        assert isinstance(plan.specs, tuple)


class TestFaultLog:
    def test_injected_total(self):
        log = FaultLog(
            shadow_tag_flips=3, history_scrambles=2, history_clears=1,
            selector_writes=4, inapplicable=9, shadow_tag_vacant=7,
        )
        assert log.injected() == 10

