"""The MVC split: ClusterView observes, ClusterController mutates."""

import pytest

from repro.cluster.network import ClusterController, ClusterView
from repro.cluster.node import ClusterNode
from repro.cluster.ring import HashRing


def small_cluster(n=3, replication=2, directory=None, **node_kwargs):
    ring = HashRing(vnodes=16)
    nodes = {}
    for index in range(n):
        node_id = f"n{index}"
        node_dir = None if directory is None else str(directory / node_id)
        nodes[node_id] = ClusterNode(
            node_id, capacity_entries=64, seed=index,
            directory=node_dir, **node_kwargs,
        )
        ring.add_node(node_id)
    view = ClusterView(ring, nodes)
    controller = ClusterController(nodes, replication, view=view)
    return ring, nodes, view, controller


class TestView:
    def test_observation_is_side_effect_free(self):
        _ring, nodes, view, controller = small_cluster()
        for node_id in view.owners("k", 2):
            nodes[node_id].put("k", 1, "v")
        before = {nid: nodes[nid].engine.state_dict() for nid in nodes}
        view.owners("k", 3)
        view.resident_keys()
        view.node_stats()
        assert {nid: nodes[nid].engine.state_dict() for nid in nodes} == before

    def test_reachability_tracks_status(self):
        ring, _nodes, view, controller = small_cluster()
        assert view.up_nodes() == ["n0", "n1", "n2"]
        controller.partition("n1")
        assert not view.is_reachable("n1")
        assert view.status("n1") == "partitioned"
        controller.heal("n1")
        assert view.is_reachable("n1")
        controller.kill("n2")
        assert view.up_nodes() == ["n0", "n1"]
        assert "n2" in ring  # stays on ring


class TestLifecycleStateMachine:
    def test_partition_requires_up(self):
        _ring, _nodes, _view, controller = small_cluster()
        controller.kill("n0")
        with pytest.raises(RuntimeError):
            controller.partition("n0")

    def test_heal_requires_partitioned(self):
        _ring, _nodes, _view, controller = small_cluster()
        with pytest.raises(RuntimeError):
            controller.heal("n0")

    def test_recover_requires_down(self):
        _ring, _nodes, _view, controller = small_cluster()
        with pytest.raises(RuntimeError):
            controller.recover("n0")

    def test_readmit_requires_rejoining(self):
        _ring, _nodes, _view, controller = small_cluster()
        with pytest.raises(RuntimeError):
            controller.readmit("n0")

    def test_crash_recover_readmit_roundtrip(self, tmp_path):
        _ring, nodes, view, controller = small_cluster(
            directory=tmp_path, wal_flush_ops=1,
        )
        for node_id in view.owners("k", 2):
            nodes[node_id].put("k", 1, "v")
        victim = view.owners("k", 2)[0]
        controller.kill(victim)
        assert view.status(victim) == "down"
        recovered = controller.recover(victim)
        assert recovered == 1  # the put survived (wal_flush_ops=1)
        assert view.status(victim) == "up"
        assert nodes[victim].peek("k") == (True, (1, "v"))


class TestMembershipChanges:
    def test_rebalance_converges_divergent_owners(self):
        _ring, nodes, view, controller = small_cluster(n=3, replication=3)
        owners = view.owners("k", 3)
        nodes[owners[0]].put("k", 7, "new")
        nodes[owners[1]].put("k", 2, "old")
        moved = controller.rebalance()
        assert moved >= 2  # the stale and the missing owner both fixed
        assert all(nodes[nid].peek("k") == (True, (7, "new"))
                   for nid in owners)

    def test_rebalance_skips_unreachable_owners(self):
        _ring, nodes, view, controller = small_cluster(n=3, replication=3)
        owners = view.owners("k", 3)
        nodes[owners[0]].put("k", 7, "new")
        controller.partition(owners[1])
        controller.rebalance()
        assert nodes[owners[1]].peek("k") == (False, None)
        controller.heal(owners[1])
        controller.rebalance()
        assert nodes[owners[1]].peek("k") == (True, (7, "new"))

    def test_rebalance_tolerates_flaky_replicas(self):
        _ring, nodes, view, controller = small_cluster(n=3, replication=3)
        owners = view.owners("k", 3)
        nodes[owners[0]].put("k", 7, "new")

        def always_fail(op, key):
            raise IOError("refused")

        nodes[owners[1]].fault = always_fail
        moved = controller.rebalance()  # must not raise
        assert moved >= 1  # the healthy owner still got its copy
        nodes[owners[1]].fault = None
        controller.rebalance()
        assert nodes[owners[1]].peek("k") == (True, (7, "new"))
