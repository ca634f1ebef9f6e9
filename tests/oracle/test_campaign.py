"""The full differential campaign: the PR's headline acceptance check.

Every registered policy plus the adaptive scheme, on both the hardware
cache and the online shard, over 16 independent seeded streams each —
256 runs — must agree with the executable specs on every decision.

The columnar lane extends the campaign to the batch kernel: every duel
pair the kernel supports, over both seed families, must be
byte-identical to the scalar per-access loop.
"""

import pytest

from repro.oracle import DUEL_PAIRS, columnar_campaign, differential_campaign
from repro.oracle.streams import hardware_stream
from repro.policies.registry import available_policies


class TestCampaign:
    def test_all_policies_both_engines_no_divergence(self):
        report = differential_campaign()
        assert report.runs >= 200, report.runs
        assert report.runs == (len(available_policies()) + 1) * 2 * 16
        assert report.events > 0
        assert report.ok, report.summary()
        assert "no divergence" in report.summary()

    def test_campaign_is_deterministic(self):
        first = differential_campaign(policies=["lru", "adaptive"],
                                      streams_per_combo=4,
                                      stream_length=80)
        second = differential_campaign(policies=["lru", "adaptive"],
                                       streams_per_combo=4,
                                       stream_length=80)
        assert (first.runs, first.events) == (second.runs, second.events)
        assert first.ok and second.ok

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            differential_campaign(policies=["lru"], engines=("fpga",),
                                  streams_per_combo=1)


class TestColumnarCampaign:
    @pytest.mark.parametrize(
        "geometry",
        [
            {},
            # The simulator's L2 shape: 8-way sets, long enough streams
            # that every set's selector window fills and flips.
            {"num_sets": 16, "ways": 8, "stream_length": 4000,
             "streams_per_combo": 1},
        ],
        ids=["4sets-4ways", "16sets-8ways"],
    )
    def test_every_duel_pair_both_seed_families_no_divergence(self, geometry):
        report = columnar_campaign(**geometry)
        streams = geometry.get("streams_per_combo", 4)
        assert report.runs == len(DUEL_PAIRS) * 2 * streams
        assert report.events > 0
        assert report.ok, report.summary()

    def test_lane_detects_hit_stream_divergence(self, monkeypatch):
        # Flip one recorded hit on the columnar side: the lane must
        # report that exact step — proving the comparison has teeth.
        from repro.oracle import columnar as lane
        from repro.perf.kernel import columnar_access_many

        def corrupted(cache, addresses, writes=None, record=None):
            hits = columnar_access_many(
                cache, addresses, writes=writes, record=record
            )
            if record is not None:
                record[7] = not record[7]
            return hits

        monkeypatch.setattr(lane, "columnar_access_many", corrupted)
        events = hardware_stream(3, num_sets=4, ways=4, length=200)
        divergence = lane.run_columnar_differential(
            ("lru", "lfu"), events, seed=3
        )
        assert divergence is not None
        assert divergence.step == 7
        assert "hit stream" in divergence.detail

    def test_campaign_is_deterministic(self):
        first = columnar_campaign(pairs=[("lru", "lfu")],
                                  streams_per_combo=2, stream_length=300)
        second = columnar_campaign(pairs=[("lru", "lfu")],
                                   streams_per_combo=2, stream_length=300)
        assert (first.runs, first.events) == (second.runs, second.events)
        assert first.ok and second.ok
