"""One cluster member: versioned records, lifecycle, crash recovery."""

import pytest

from repro.cluster.node import ClusterNode, NodeDownError


def drive(node, ops):
    """Apply a simple scripted op stream to a node."""
    for op in ops:
        if op[0] == "put":
            node.put(op[1], op[2], op[3])
        elif op[0] == "get":
            node.get(op[1])
        else:
            node.delete(op[1])


def restart(node):
    """Restart a crashed node; the engine-counted operations (gets +
    puts + deletes of a resident key) its recovered state covers."""
    node.restart()
    stats = node.stats()
    return stats.gets + stats.puts + stats.deletes


class TestVersionedRecords:
    def test_put_get_roundtrip(self):
        node = ClusterNode("a", capacity_entries=8)
        node.put("k", 3, "hello")
        found, record = node.get("k")
        assert found and record == (3, "hello")
        found, record = node.get("missing")
        assert not found and record is None

    def test_overwrite_keeps_latest_version(self):
        node = ClusterNode("a", capacity_entries=8)
        node.put("k", 1, "old")
        node.put("k", 9, "new")
        assert node.get("k") == (True, (9, "new"))

    def test_delete_reports_residency(self):
        node = ClusterNode("a", capacity_entries=8)
        node.put("k", 1, "v")
        assert node.delete("k") is True
        assert node.delete("k") is False

    def test_peek_fires_no_policy_events(self):
        node = ClusterNode("a", capacity_entries=8)
        node.put("k", 1, "v")
        before = node.engine.state_dict()
        for _ in range(10):
            assert node.peek("k") == (True, (1, "v"))
            assert node.peek("nope") == (False, None)
        assert node.engine.state_dict() == before


class TestLifecycle:
    def test_crash_refuses_service(self):
        node = ClusterNode("a", capacity_entries=8)
        node.put("k", 1, "v")
        node.crash()
        assert node.status == "down"
        with pytest.raises(NodeDownError):
            node.get("k")
        with pytest.raises(NodeDownError):
            node.put("k", 2, "w")
        assert node.peek("k") == (False, None)
        assert node.resident_keys() == []
        assert node.stats() is None

    def test_crash_is_idempotent(self):
        node = ClusterNode("a", capacity_entries=8)
        node.crash()
        node.crash()
        assert node.status == "down"
        assert node.stats() is None

    def test_memory_only_node_recovers_empty(self):
        node = ClusterNode("a", capacity_entries=8)
        node.put("k", 1, "v")
        node.crash()
        node.restart()
        assert node.status == "rejoining"
        assert node.get("k") == (False, None)

    def test_fault_hook_fires_before_apply(self):
        calls = []

        def fault(op, key):
            calls.append((op, key))
            raise IOError("refused")

        node = ClusterNode("a", capacity_entries=8, fault=fault)
        with pytest.raises(IOError):
            node.put("k", 1, "v")
        assert calls == [("put", "k")]
        assert node.stats().puts == 0  # the refused op never applied
        node.fault = None
        assert node.get("k") == (False, None)


class TestCrashRecovery:
    def test_recovery_covers_the_persisted_prefix(self, tmp_path):
        node = ClusterNode(
            "a", capacity_entries=16, directory=str(tmp_path / "a"),
            snapshot_every=10, wal_flush_ops=4,
        )
        for index in range(23):
            node.put(index % 7, index + 1, ("v", index))
        node.crash()
        recovered = restart(node)
        assert node.status == "rejoining"
        # the unflushed WAL window died with the process
        assert 23 - 4 < recovered <= 23
        assert recovered == node.stats().puts

    def test_recovered_state_matches_log_replay(self, tmp_path):
        """The recovered node is the engine its persisted prefix built:
        the same ops replayed here onto a fresh engine of the node's
        configuration reach the same ``state_dict()``, also after both
        keep serving."""
        node = ClusterNode(
            "a", capacity_entries=8, seed=3, directory=str(tmp_path / "a"),
            snapshot_every=12, wal_flush_ops=3,
        )
        ops = [("put", index % 9, index + 1, ("v", index % 9, index))
               if index % 3 == 0 else ("get", index % 9)
               for index in range(40)]
        drive(node, ops)
        node.crash()
        recovered = restart(node)
        assert 40 - 3 < recovered <= 40  # one flush window lost
        reference = ClusterNode("b", capacity_entries=8, seed=3)
        drive(reference, ops[:recovered])
        assert node.engine.state_dict() == reference.engine.state_dict()
        serving = [("get", index % 9) for index in range(15)]
        drive(node, serving)
        drive(reference, serving)
        assert node.engine.state_dict() == reference.engine.state_dict()

    def test_missing_key_deletes_are_not_counted(self, tmp_path):
        """``delete`` of an absent key is WAL-logged but counted by no
        engine counter, so the recovered total skips it."""
        node = ClusterNode(
            "a", capacity_entries=8, directory=str(tmp_path / "a"),
            snapshot_every=100, wal_flush_ops=1,
        )
        node.put("k", 1, "v")
        node.delete("absent-1")
        node.delete("absent-2")
        node.get("k")
        node.crash()
        assert restart(node) == 2
        assert node.get("k") == (True, (1, "v"))

    def test_serving_node_recovers_counted_total(self, tmp_path):
        node = ClusterNode(
            "a", capacity_entries=16, directory=str(tmp_path / "a"),
            snapshot_every=50, wal_flush_ops=4,
        )
        counted = 0
        for index in range(1000):
            key = index % 23
            if index % 4 == 0:
                node.put(key, index + 1, ("v", index))
                counted += 1
            elif index % 97 == 0:
                # only a delete of a resident key is engine-counted
                counted += node.delete(key)
            else:
                node.get(key)
                counted += 1
        node.crash()
        recovered = restart(node)
        assert counted - 4 < recovered <= counted  # one flush window
