"""The cluster router: quorums, hedging, read-repair, recovery."""

import functools
from collections import Counter

import pytest

from repro.cluster.cache import ClusterKVCache, WriteQuorumError
from repro.cluster.latency import LatencyModel


def cluster(**overrides):
    defaults = dict(num_nodes=5, replication=3, seed=1)
    defaults.update(overrides)
    return ClusterKVCache(**defaults)


def replicas(c, key):
    """Each owner's ``(version, value)`` for ``key``, or None, read
    through ``node.peek`` (no policy events)."""
    return {node_id: c.nodes[node_id].peek(key)[1]
            for node_id in c.view.owners(key, c.replication)}


def record_gets(c):
    """Wrap every member's ``get``; return the list of the members it
    asked, in order (the replicas a read consulted)."""
    asked = []
    for node_id, node in c.nodes.items():
        def recorded(key, _original=node.get, _node_id=node_id):
            asked.append(_node_id)
            return _original(key)
        node.get = recorded
    return asked


def versions(c, key):
    """The distinct versions the key's owners hold."""
    return {record[0] for record in replicas(c, key).values()
            if record is not None}


class TestQuorumWrites:
    def test_acked_write_is_readable(self):
        c = cluster()
        version = c.put("k", "v")
        assert version == 1
        assert c.get("k") == "v"
        stats = c.stats()
        assert stats.acked_writes == 1 and stats.failed_writes == 0

    def test_write_replicates_to_every_owner(self):
        c = cluster()
        c.put("k", "v")
        held = replicas(c, "k")
        assert len(held) == 3
        assert all(record == (1, "v") for record in held.values())

    def test_versions_are_monotonic(self):
        c = cluster()
        versions = [c.put(key, key) for key in range(10)]
        assert versions == sorted(versions)
        assert len(set(versions)) == 10

    def test_quorum_failure_raises_but_partial_writes_stand(self):
        c = cluster()
        owners = c.view.owners("k", 3)
        c.nodes[owners[0]].crash()
        c.nodes[owners[1]].crash()
        with pytest.raises(WriteQuorumError) as excinfo:
            c.put("k", "v")
        assert excinfo.value.acks == 1
        # the surviving owner holds the (un-acked, still real) version
        found, record = c.nodes[owners[2]].peek("k")
        assert found and record == (excinfo.value.version, "v")
        assert c.stats().failed_writes == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            cluster(num_nodes=0)
        with pytest.raises(ValueError):
            cluster(replication=0)

    def test_replication_caps_at_membership(self):
        c = cluster(num_nodes=2, replication=3)
        assert c.replication == 2
        assert c.write_quorum == 2


class TestReads:
    def test_miss_returns_default(self):
        c = cluster()
        assert c.get("nope") is None
        assert c.get("nope", default=42) == 42
        assert c.stats().read_misses == 2

    def test_read_survives_primary_kill_via_hedge(self):
        c = cluster()
        c.put("k", "v")
        primary = c.view.owners("k", 3)[0]
        c.nodes[primary].crash()
        assert c.get("k") == "v"
        stats = c.stats()
        assert stats.hedged_reads >= 1

    def test_read_survives_partition_of_two_owners(self):
        c = cluster()
        c.put("k", "v")
        owners = c.view.owners("k", 3)
        c.nodes[owners[0]].partition()
        c.nodes[owners[1]].partition()
        assert c.get("k") == "v"

    def test_open_breaker_triggers_hedge_without_touching_node(self):
        c = cluster()
        c.put("k", "v")
        primary = c.view.owners("k", 3)[0]
        # trip the primary's breaker
        for _ in range(3):
            c.breakers[primary].record_failure()
        asked = record_gets(c)
        assert c.get("k") == "v"
        assert primary not in asked  # breaker kept it out
        assert c.stats().hedged_reads >= 1

    def test_slow_primary_triggers_latency_hedge(self):
        c = ClusterKVCache(
            num_nodes=3, replication=3, seed=2, hedge_after=0.01,
            latency_factory=lambda index: LatencyModel(
                spike_rate=1.0 if index == 0 else 0.0, seed=index
            ),
        )
        # make every node slotted as primary somewhere; find a key
        # whose primary is the spiky node n0
        key = next(k for k in range(100) if c.view.owners(k, 1) == ["n0"])
        c.put(key, "v")
        before = c.stats().hedged_reads
        asked = record_gets(c)
        assert c.get(key) == "v"
        assert c.stats().hedged_reads == before + 1
        assert len(asked) == 2  # primary answered, hedge consulted too

    def test_unavailable_when_all_owners_down(self):
        c = cluster(num_nodes=3, replication=3)
        c.put("k", "v")
        for node_id in c.view.owners("k", 3):
            c.nodes[node_id].crash()
        assert c.get("k") is None
        assert c.stats().unavailable >= 1

    def test_get_or_compute_fills_cluster_wide(self):
        c = cluster()
        calls = []

        def loader(key):
            calls.append(key)
            return key * 2

        assert c.get_or_compute("k", lambda _k: 10) == 10
        assert c.get_or_compute("k", loader) == 10  # hit, loader unused
        assert calls == []


class TestReadRepair:
    def _diverge(self, c, key):
        """Manually write an older version onto one owner."""
        owners = c.view.owners(key, 3)
        version = c.put(key, "new")
        c.nodes[owners[1]].put(key, version - 1 if version > 1 else 0, "old")
        assert len(versions(c, key)) > 1
        return owners

    def test_read_repairs_divergent_replica(self):
        c = cluster()
        c.put("pad", "x")  # bump the version counter past 1
        self._diverge(c, "k")
        assert c.get("k") == "new"
        assert len(versions(c, "k")) == 1
        assert c.stats().read_repairs >= 1

    def test_newer_peeked_version_wins_over_served_reply(self):
        """If a non-consulted replica holds a newer version, repair
        raises the consulted ones to it (the read itself may serve the
        older value — staleness is legal, divergence is not)."""
        c = cluster()
        owners = c.view.owners("k", 3)
        c.put("k", "v1")
        # a newer version lands only on the last owner (as if a
        # partition ate the other acks)
        c.nodes[owners[2]].put("k", 99, "v99")
        c.get("k")
        assert all(record == (99, "v99")
                   for record in replicas(c, "k").values())

    def test_repair_sweep_refills_recovered_node(self):
        c = cluster(num_nodes=3, replication=3, capacity_per_node=128)
        for key in range(30):
            c.put(key, ("v", key))
        victim = c.view.owners(0, 1)[0]
        c.nodes[victim].crash()
        c.recover(victim)  # memory-only: restarts empty
        node = c.nodes[victim]
        resident = set(node.resident_keys())
        assert resident  # the refill sweep refilled the rejoined node
        for key in resident:
            found, record = node.peek(key)
            assert found and record[1] == ("v", key)

    def test_delete_removes_from_all_reachable_owners(self):
        c = cluster()
        c.put("k", "v")
        assert c.delete("k") is True
        assert c.get("k") is None
        assert all(record is None for record in replicas(c, "k").values())



class TestView:
    def test_observation_is_side_effect_free(self):
        c = cluster(num_nodes=3, replication=2)
        for node_id in c.view.owners("k", 2):
            c.nodes[node_id].put("k", 1, "v")
        before = {nid: node.engine.state_dict()
                  for nid, node in c.nodes.items()}
        c.view.owners("k", 3)
        c.view.resident_keys()
        c.view.node_stats()
        assert {nid: node.engine.state_dict()
                for nid, node in c.nodes.items()} == before


def into(c, node_id, status):
    """Drive member ``node_id`` of ``c`` from ``up`` into ``status``."""
    node = c.nodes[node_id]
    if status == "partitioned":
        node.partition()
    elif status in ("down", "rejoining"):
        node.crash()
        if status == "rejoining":
            node.restart()


#: The lifecycle: transition -> the status it leaves each status in,
#: or RuntimeError where it may not start. ``recover`` is the
#: router's; the rest are the member's own.
LIFECYCLE = {
    "crash": {"up": "down", "partitioned": "down", "down": "down",
              "rejoining": "down"},
    "restart": {"up": RuntimeError, "partitioned": RuntimeError,
                "down": "rejoining", "rejoining": RuntimeError},
    "partition": {"up": "partitioned", "partitioned": RuntimeError,
                  "down": RuntimeError, "rejoining": RuntimeError},
    "heal": {"up": RuntimeError, "partitioned": "up",
             "down": RuntimeError, "rejoining": RuntimeError},
    "admit": {"up": RuntimeError, "partitioned": RuntimeError,
              "down": RuntimeError, "rejoining": "up"},
    "recover": {"up": RuntimeError, "partitioned": RuntimeError,
                "down": "up", "rejoining": "up"},
}


@pytest.mark.parametrize("transition, status", [
    (transition, status) for transition, cells in LIFECYCLE.items()
    for status in cells
])
def test_lifecycle(transition, status, tmp_path):
    """One cell of the lifecycle: a refused transition changes
    nothing, the router reaches only ``up`` members, and every member
    stays on the ring."""
    c = cluster(num_nodes=3, replication=3, directory=str(tmp_path),
                wal_flush_ops=1)
    c.put("k", "v")
    node = c.nodes["n1"]
    into(c, "n1", status)
    expected = LIFECYCLE[transition][status]
    if transition == "recover":
        act = functools.partial(c.recover, "n1")
    else:
        act = getattr(node, transition)
    if expected is RuntimeError:
        with pytest.raises(RuntimeError):
            act()
        expected = status
    else:
        act()
    assert node.status == expected
    assert c.view.is_reachable("n1") == (expected == "up")
    assert "n1" in c.ring
    if transition == "recover":
        assert node.peek("k") == (True, (1, "v"))


class TestRecovery:
    def test_refused_refill_is_not_admitted(self):
        """A member admitted before its refill landed would serve as
        a replica while holding none of its keys; the next crash could
        then take an acked write's last copy."""
        c = cluster(num_nodes=3, replication=3)
        first, second, third = c.view.owners("k", 3)
        c.nodes[third].partition()
        c.put("k", "v")  # acked by the first two owners
        node = c.nodes[second]
        node.crash()

        def refuse(op, key):
            if op == "put":
                raise IOError("refused")

        node.fault = refuse
        with pytest.raises(RuntimeError):
            c.recover(second)
        assert node.status == "rejoining"
        assert node.peek("k") == (False, None)
        node.fault = None
        c.recover(second)  # retries the refill, no second restart
        assert node.status == "up"
        assert node.peek("k") == (True, (1, "v"))
        c.nodes[first].crash()
        assert c.get("k") == "v"


class TestRebalance:
    def test_converges_divergent_owners(self):
        c = cluster(num_nodes=3, replication=3)
        owners = c.view.owners("k", 3)
        c.nodes[owners[0]].put("k", 7, "new")
        c.nodes[owners[1]].put("k", 2, "old")
        assert c.rebalance() == set()
        # the stale and the missing owner both fixed
        assert replicas(c, "k") == {nid: (7, "new") for nid in owners}

    def test_skips_unreachable_owners(self):
        c = cluster(num_nodes=3, replication=3)
        owners = c.view.owners("k", 3)
        c.nodes[owners[0]].put("k", 7, "new")
        c.nodes[owners[1]].partition()
        c.rebalance()
        assert c.nodes[owners[1]].peek("k") == (False, None)
        c.nodes[owners[1]].heal()
        c.rebalance()
        assert c.nodes[owners[1]].peek("k") == (True, (7, "new"))

    def test_tolerates_flaky_replicas(self):
        c = cluster(num_nodes=3, replication=3)
        owners = c.view.owners("k", 3)
        c.nodes[owners[0]].put("k", 7, "new")

        def always_fail(op, key):
            raise IOError("refused")

        c.nodes[owners[1]].fault = always_fail
        assert c.rebalance() == {owners[1]}  # must not raise
        # the healthy owner still got its copy
        assert c.nodes[owners[2]].peek("k") == (True, (7, "new"))
        c.nodes[owners[1]].fault = None
        c.rebalance()
        assert c.nodes[owners[1]].peek("k") == (True, (7, "new"))


def writes(c):
    """Puts applied across the live members' engines."""
    return sum(stats.puts for stats in c.view.node_stats().values()
               if stats is not None)


def count_looks(c):
    """Wrap every member's ``get`` and ``peek``; return the per-node
    call counter."""
    looks = Counter()
    for node_id, node in c.nodes.items():
        for method in ("get", "peek"):
            def counted(key, _original=getattr(node, method),
                        _node_id=node_id):
                looks[_node_id] += 1
                return _original(key)
            setattr(node, method, counted)
    return looks


class TestOneLookPerOwner:
    """A read looks at each owner once: a consulted owner's reply is
    its record for read-repair, and only the others are peeked."""

    def assert_one_look(self, c, key, looks):
        owners = c.view.owners(key, c.replication)
        assert set(looks) <= set(owners)
        assert all(looks[node_id] <= 1 for node_id in owners), looks

    def test_hit(self):
        c = cluster()
        c.put("k", "v")
        looks = count_looks(c)
        assert c.get("k") == "v"
        self.assert_one_look(c, "k", looks)

    def test_miss(self):
        c = cluster()
        looks = count_looks(c)
        assert c.get("k") is None
        self.assert_one_look(c, "k", looks)

    def test_miss_with_a_resident_copy(self):
        c = cluster()
        owners = c.view.owners("k", 3)
        c.nodes[owners[2]].put("k", 5, "v")  # beyond the read fanout
        looks = count_looks(c)
        assert c.get("k") is None
        self.assert_one_look(c, "k", looks)

    def test_hedged_read(self):
        c = cluster()
        c.put("k", "v")
        c.nodes[c.view.owners("k", 3)[0]].crash()
        looks = count_looks(c)
        assert c.get("k") == "v"
        assert c.stats().hedged_reads == 1
        self.assert_one_look(c, "k", looks)

    def test_latency_hedged_read(self):
        c = ClusterKVCache(
            num_nodes=3, replication=3, seed=2, hedge_after=0.01,
            latency_factory=lambda index: LatencyModel(
                spike_rate=1.0 if index == 0 else 0.0, seed=index
            ),
        )
        key = next(k for k in range(100) if c.view.owners(k, 1) == ["n0"])
        c.put(key, "v")
        asked = record_gets(c)
        looks = count_looks(c)
        assert c.get(key) == "v" and len(asked) == 2
        self.assert_one_look(c, key, looks)

    def test_repairing_read(self):
        c = cluster()
        c.put("pad", "x")
        stale_owner = c.view.owners("k", 3)[1]
        version = c.put("k", "new")
        c.nodes[stale_owner].put("k", version - 1, "old")
        looks = count_looks(c)
        assert c.get("k") == "new"
        assert c.stats().read_repairs == 1
        self.assert_one_look(c, "k", looks)
        assert c.nodes[stale_owner].peek("k") == (True, (version, "new"))

    def test_get_or_compute_fill(self):
        c = cluster()
        looks = count_looks(c)
        assert c.get_or_compute("k", lambda key: "v") == "v"
        self.assert_one_look(c, "k", looks)
        assert replicas(c, "k") == {
            node_id: (1, "v") for node_id in c.view.owners("k", 3)
        }

    def test_repair_sweep_peeks_each_member_once_per_key(self):
        c = cluster(num_nodes=4, replication=3)
        for key in range(12):
            c.put(key, key)
        stale_owner = c.view.owners("k", 3)[1]
        version = c.put("k", "new")
        c.nodes[stale_owner].put("k", version - 1, "old")
        keys = c.view.resident_keys()
        puts = writes(c)
        looks = count_looks(c)
        assert c.rebalance() == set()
        assert all(looks[node_id] <= len(keys) for node_id in c.nodes), looks
        assert writes(c) == puts + 1  # only the stale owner took a copy
        c.nodes["n0"].crash()
        keys = c.view.resident_keys()
        looks.clear()
        # memory-only: n0 restarts empty, then the catch-up sweep
        c.recover("n0")
        assert c.nodes["n0"].resident_keys()
        assert all(looks[node_id] <= len(keys) for node_id in c.nodes), looks


class TestBookkeeping:
    def test_stats_merge_per_node(self):
        c = cluster(num_nodes=3)
        for key in range(20):
            c.put(key, key)
        for key in range(20):
            c.get(key)
        stats = c.stats()
        assert stats.reads == 20 and stats.writes == 20
        assert stats.hit_ratio > 0.9
        assert set(stats.per_node) == {"n0", "n1", "n2"}
        assert all(s is not None for s in stats.per_node.values())
        assert stats.availability == 1.0

    def test_len_counts_distinct_resident_keys(self):
        c = cluster(num_nodes=3, replication=2)
        for key in range(10):
            c.put(key, key)
        assert len(c) == 10

    def test_context_manager_closes_nodes(self, tmp_path):
        with ClusterKVCache(
            num_nodes=2, replication=2, seed=0,
            directory=str(tmp_path), wal_flush_ops=64,
        ) as c:
            c.put("k", "v")
        # WALs were flushed on close: a fresh cluster over the same
        # directory recovers the data
        fresh = ClusterKVCache(
            num_nodes=2, replication=2, seed=0,
            directory=str(tmp_path), wal_flush_ops=64,
        )
        # nodes boot fresh (PersistentKVCache starts a new generation),
        # so this only checks close() didn't corrupt the directories
        fresh.close()

    def test_deterministic_given_seed(self):
        def run():
            c = cluster(seed=7)
            out = []
            for index in range(60):
                key = index % 13
                if index % 3 == 0:
                    out.append(("put", c.put(key, ("v", index))))
                else:
                    out.append(("get", c.get(key)))
            stats = c.stats()
            return out, stats.read_hits, stats.acked_writes

        assert run() == run()
