"""Placement differential: the tiered KV walker versus its specs.

The placement analogue of the policy campaign: every placement
strategy with a reference spec — LCE, LCD, probabilistic LCD, and the
adaptive duel — replayed operation-for-operation against
:class:`repro.oracle.placement_spec.SpecTieredKV` over seeded streams,
on both a 2-tier and a 3-tier topology.
"""

import pytest

from repro.oracle.harness import (
    build_tiered_kv_pair,
    placement_campaign,
    run_differential,
)
from repro.oracle.placement_spec import (
    SpecTieredKV,
    make_placement_spec,
    placement_spec_names,
)
from repro.oracle.streams import shard_ops
from repro.tiers.placement import FIXED_PLACEMENTS


class TestSpecRegistry:
    def test_every_placement_strategy_has_a_spec(self):
        assert sorted(placement_spec_names()) == \
            sorted(FIXED_PLACEMENTS + ("adaptive",))

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="no spec for placement"):
            make_placement_spec("mru-placement")

    def test_adaptive_spec_needs_capacities(self):
        with pytest.raises(ValueError, match="tier_capacities"):
            make_placement_spec("adaptive")


class TestCampaign:
    def test_all_placements_no_divergence(self):
        report = placement_campaign()
        assert report.runs == len(placement_spec_names()) * 2 * 16
        assert report.events > 0
        assert report.ok, report.summary()

    def test_campaign_is_deterministic(self):
        first = placement_campaign(placements=["lcd", "adaptive"],
                                   streams_per_combo=4, stream_length=80)
        second = placement_campaign(placements=["lcd", "adaptive"],
                                    streams_per_combo=4, stream_length=80)
        assert (first.runs, first.events) == (second.runs, second.events)
        assert first.ok and second.ok


class TestHarnessSensitivity:
    def test_mismatched_pair_diverges(self):
        """Negative control: pairing the LCE walker with the LCD spec
        must produce a divergence — proof the comparison has teeth."""
        pair = build_tiered_kv_pair("lce", (4, 12), seed=3)
        pair.spec = SpecTieredKV(
            ["t0", "t1"], [4, 12],
            make_placement_spec("lcd", tier_capacities=[4, 12], seed=3),
        )
        events = shard_ops(3, 16, 200)
        divergence = run_differential(pair, events, seed=3)
        assert divergence is not None
        assert "lce" in divergence.label

    def test_seed_mismatch_diverges_problcd(self):
        """Different RNG seeds must desynchronize probabilistic LCD."""
        pair = build_tiered_kv_pair("problcd", (4, 12), seed=1)
        pair.spec = SpecTieredKV(
            ["t0", "t1"], [4, 12],
            make_placement_spec("problcd", tier_capacities=[4, 12], seed=2),
        )
        events = shard_ops(1, 16, 400)
        assert run_differential(pair, events, seed=1) is not None
