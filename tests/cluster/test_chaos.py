"""Cluster chaos: kills, partitions, flaky replicas — invariants hold.

The quick campaign runs unmarked (CI's smoke path); the 128-seed batch
is the acceptance sweep, marked slow. Both assert the campaign's full
verdict: zero wrong values, zero acked-write loss at replication >= 2,
read-repair convergence, per-node oracle decision identity, and
recovered-prefix state identity.
"""

import pytest

from repro.cluster.chaos import (
    ClusterChaosPlan,
    ClusterChaosReport,
    FlakyReplica,
    _check_node_identity,
    _check_node_oracle,
    cluster_chaos_campaign,
    cluster_stream,
)
from repro.cluster.node import ClusterNode

pytestmark = pytest.mark.faults

#: Small enough for the unmarked smoke, big enough that kills, a
#: partition, hedges and repairs all actually happen.
QUICK = dict(
    ops=300, durable_ops=200, durable_kill_at=80, durable_partition_at=40,
    recover_after=60, heal_after=50, hot_keys=48, capacity_per_node=40,
)


class TestFlakyReplica:
    def test_deterministic_and_bursty(self):
        def probe(flaky):
            outcomes = []
            for index in range(80):
                try:
                    flaky("get", index)
                    outcomes.append(True)
                except IOError:
                    outcomes.append(False)
            return outcomes

        first = FlakyReplica(failure_rate=0.2, burst=2, seed=5)
        second = FlakyReplica(failure_rate=0.2, burst=2, seed=5)
        assert probe(first) == probe(second)
        assert 0 < first.failures < 80

    def test_validation(self):
        with pytest.raises(ValueError):
            FlakyReplica(failure_rate=1.5)
        with pytest.raises(ValueError):
            FlakyReplica(burst=-1)


class TestPlan:
    def test_seeded_plans_are_reproducible(self):
        assert (ClusterChaosPlan.seeded(3, **QUICK)
                == ClusterChaosPlan.seeded(3, **QUICK))
        assert (ClusterChaosPlan.seeded(3, **QUICK)
                != ClusterChaosPlan.seeded(4, **QUICK))

    def test_seeded_windows_fit_the_stream(self):
        plan = ClusterChaosPlan.seeded(0, **QUICK)
        assert len(plan.kills) == 2
        assert all(
            0 < k <= plan.ops - plan.recover_after for k in plan.kills
        )
        assert 0 < plan.partition_at <= plan.ops - plan.heal_after

    def test_stream_is_deterministic_and_mixed(self):
        plan = ClusterChaosPlan(seed=2)
        stream = cluster_stream(plan, 400, salt=7)
        assert stream == cluster_stream(plan, 400, salt=7)
        ops = {op for op, _key in stream}
        assert ops == {"get", "put"}

    def test_stream_key_space_bound(self):
        plan = ClusterChaosPlan(seed=2, hot_keys=32)
        stream = cluster_stream(plan, 400, salt=11, key_space=32)
        assert all(0 <= key < 32 for _op, key in stream)


class TestQuickCampaign:
    def test_persistent_campaign_holds_all_invariants(self, tmp_path):
        plan = ClusterChaosPlan.seeded(0, **QUICK)
        report = cluster_chaos_campaign(plan, str(tmp_path))
        assert isinstance(report, ClusterChaosReport)
        assert report.ok(), vars(report)
        # the campaign actually exercised the machinery it verdicts
        assert report.kills >= 2
        assert report.partitions >= 1
        assert report.recoveries == report.kills
        assert report.hedged_reads > 0
        assert report.acked_writes > 0
        assert report.durable_acked > 0
        assert report.reads > 0 and report.read_hits > 0

    def test_memory_only_campaign_holds_replication_invariants(self):
        """Without disks, crashed members restart empty and rebuild
        from peers — acked writes still survive via replication."""
        plan = ClusterChaosPlan.seeded(1, **QUICK)
        report = cluster_chaos_campaign(plan, None)
        assert report.ok(), vars(report)
        assert report.recoveries == report.kills >= 2

    def test_campaign_is_deterministic(self, tmp_path):
        plan = ClusterChaosPlan.seeded(5, **QUICK)
        first = cluster_chaos_campaign(plan, str(tmp_path / "a"))
        second = cluster_chaos_campaign(plan, str(tmp_path / "b"))
        assert vars(first) == vars(second)

    def test_single_replication_skips_durability_phase(self, tmp_path):
        """At replication=1 no-loss cannot be promised (the one
        replica may be the killed node); the campaign only asserts
        integrity and identity."""
        plan = ClusterChaosPlan.seeded(2, replication=1, **QUICK)
        report = cluster_chaos_campaign(plan, str(tmp_path))
        assert report.durable_acked == 0
        assert report.wrong_values == 0
        assert report.identity_mismatches == 0


class TestChecksNeedTheLog:
    """Negative controls: the per-node checks must see every applied
    operation, and must refuse a node whose log was never armed rather
    than pass it on an empty stream."""

    @staticmethod
    def _node(armed=True):
        node = ClusterNode("n0", capacity_entries=2)
        if armed:
            node.op_log = []
        return node

    def test_clean_armed_node_passes_both_checks(self):
        node = self._node()
        node.put("a", 1, "x")
        node.put("b", 2, "y")
        node.get("a")
        node.put("c", 3, "z")
        report = ClusterChaosReport()
        _check_node_identity(node, report)
        _check_node_oracle(node, report)
        assert report.ok(), vars(report)

    def test_unlogged_engine_get_is_caught_by_both_checks(self):
        node = self._node()
        node.put("a", 1, "x")
        node.put("b", 2, "y")
        node.engine.get("a")  # applied, never logged
        node.put("c", 3, "z")  # the unlogged get changes this victim
        report = ClusterChaosReport()
        _check_node_identity(node, report)
        _check_node_oracle(node, report)
        assert report.identity_mismatches >= 1
        assert len(report.oracle_divergences) == 1
        assert "residency differs" in report.oracle_divergences[0].detail

    def test_unarmed_log_is_refused_not_read_as_empty(self):
        node = self._node(armed=False)
        node.put("a", 1, "x")
        report = ClusterChaosReport()
        with pytest.raises(RuntimeError, match="operation log"):
            _check_node_identity(node, report)
        with pytest.raises(RuntimeError, match="operation log"):
            _check_node_oracle(node, report)


@pytest.mark.slow
class TestAcceptanceSweep:
    def test_128_seeded_campaigns_all_pass(self, tmp_path):
        """The acceptance bar: >= 128 seeded runs, every invariant in
        every run. Persistence is exercised on a rotating subset (disk
        campaigns are slower; the invariants are identical)."""
        failures = []
        for seed in range(128):
            plan = ClusterChaosPlan.seeded(seed, **QUICK)
            directory = (
                str(tmp_path / f"s{seed}") if seed % 8 == 0 else None
            )
            report = cluster_chaos_campaign(plan, directory)
            if not report.ok():
                failures.append((seed, vars(report)))
        assert not failures, failures[:3]
