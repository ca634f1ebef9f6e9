"""Unit tests for the fixed placement strategies and the registry."""

import pytest

from repro.tiers.placement import (
    FIXED_PLACEMENTS,
    LeaveCopyDown,
    LeaveCopyEverywhere,
    ProbabilisticLCD,
    make_placement,
)


class TestLCE:
    def test_backing_serve_fills_every_tier(self):
        lce = LeaveCopyEverywhere()
        assert lce.copy_tiers(3, 3, key=1) == (0, 1, 2)

    def test_hit_fills_tiers_above(self):
        lce = LeaveCopyEverywhere()
        assert lce.copy_tiers(3, 2, key=1) == (0, 1)
        assert lce.copy_tiers(3, 0, key=1) == ()


class TestLCD:
    def test_backing_serve_fills_bottom_tier_only(self):
        lcd = LeaveCopyDown()
        assert lcd.copy_tiers(3, 3, key=1) == (2,)

    def test_hit_promotes_one_tier(self):
        lcd = LeaveCopyDown()
        assert lcd.copy_tiers(3, 2, key=1) == (1,)
        assert lcd.copy_tiers(3, 1, key=1) == (0,)

    def test_top_tier_hit_places_nothing(self):
        assert LeaveCopyDown().copy_tiers(3, 0, key=1) == ()


class TestProbLCD:
    def test_p_one_is_lcd(self):
        always = ProbabilisticLCD(p=1.0, seed=7)
        lcd = LeaveCopyDown()
        for served in (1, 2, 3):
            assert always.copy_tiers(3, served, key=served) == \
                lcd.copy_tiers(3, served, key=served)

    def test_p_zero_never_copies(self):
        never = ProbabilisticLCD(p=0.0, seed=7)
        assert all(
            never.copy_tiers(3, served, key=served) == ()
            for served in (1, 2, 3)
        )

    def test_deterministic_for_a_seed(self):
        a = ProbabilisticLCD(p=0.5, seed=42)
        b = ProbabilisticLCD(p=0.5, seed=42)
        decisions_a = [a.copy_tiers(2, 2, key=i) for i in range(200)]
        decisions_b = [b.copy_tiers(2, 2, key=i) for i in range(200)]
        assert decisions_a == decisions_b
        # With p=0.5, both outcomes occur.
        assert any(d for d in decisions_a) and any(not d for d in decisions_a)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ProbabilisticLCD(p=1.5)


class TestRegistry:
    def test_fixed_names_build(self):
        for name in FIXED_PLACEMENTS:
            assert make_placement(name).name == name

    def test_adaptive_needs_capacities(self):
        with pytest.raises(ValueError, match="tier_capacities"):
            make_placement("adaptive")
        strategy = make_placement("adaptive", tier_capacities=[16, 64])
        assert strategy.name == "adaptive"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            make_placement("copy-nothing")
