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


def armed(node):
    """Arm the node's operation log, as the chaos campaign does."""
    node.op_log = []
    return node


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
        node = armed(ClusterNode("a", capacity_entries=8))
        node.put("k", 1, "v")
        before = node.stats()
        for _ in range(10):
            assert node.peek("k") == (True, (1, "v"))
            assert node.peek("nope") == (False, None)
        assert node.stats() == before
        assert len(node.op_log) == 1  # just the put

    def test_op_log_records_everything_in_order(self):
        node = armed(ClusterNode("a", capacity_entries=8))
        node.put("k", 1, "v")
        node.get("k")
        node.delete("k")
        node.get("k")
        assert node.op_log == [
            ("put", "k", (1, "v")),
            ("get", "k"),
            ("del", "k", True),
            ("get", "k"),
        ]


class TestLifecycle:
    def test_crash_refuses_service(self):
        node = ClusterNode("a", capacity_entries=8)
        node.put("k", 1, "v")
        node.crash()
        assert node.status == "down"
        assert node.crashes == 1
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
        assert node.crashes == 1

    def test_memory_only_node_recovers_empty(self):
        node = armed(ClusterNode("a", capacity_entries=8))
        node.put("k", 1, "v")
        node.crash()
        with pytest.raises(RuntimeError):
            node.recover_from_disk()
        node.rebuild_empty()
        assert node.status == "rejoining"
        assert node.op_log == []
        assert node.get("k") == (False, None)

    def test_fault_hook_fires_before_apply(self):
        calls = []

        def fault(op, key):
            calls.append((op, key))
            raise IOError("refused")

        node = armed(ClusterNode("a", capacity_entries=8, fault=fault))
        with pytest.raises(IOError):
            node.put("k", 1, "v")
        assert calls == [("put", "k")]
        assert node.op_log == []  # the refused op never applied
        node.fault = None
        assert node.get("k") == (False, None)


class TestCrashRecovery:
    def test_recovery_truncates_log_to_persisted_prefix(self, tmp_path):
        node = armed(ClusterNode(
            "a", capacity_entries=16, directory=str(tmp_path / "a"),
            snapshot_every=10, wal_flush_ops=4,
        ))
        for index in range(23):
            node.put(index % 7, index + 1, ("v", index))
        node.crash()
        recovered = node.recover_from_disk()
        assert node.status == "rejoining"
        # the unflushed WAL window died with the process
        assert recovered <= 23
        assert len(node.op_log) == recovered
        assert 23 - recovered < 4  # at most one flush window lost

    def test_recovered_state_matches_log_replay(self, tmp_path):
        from repro.cluster.chaos import _replay_reference

        node = armed(ClusterNode(
            "a", capacity_entries=16, seed=3,
            directory=str(tmp_path / "a"),
            snapshot_every=12, wal_flush_ops=3,
        ))
        for index in range(40):
            key = index % 9
            if index % 3 == 0:
                node.put(key, index + 1, ("v", key, index))
            else:
                node.get(key)
        node.crash()
        node.recover_from_disk()
        # keep serving after recovery, then check full-log identity
        for index in range(15):
            node.get(index % 9)
        reference = _replay_reference(node)
        assert reference.state_dict() == node.engine.state_dict()

    def test_missing_key_deletes_do_not_skew_the_prefix(self, tmp_path):
        """``delete`` of an absent key is WAL-logged but counted by no
        engine counter; the recovered-prefix computation must walk past
        them instead of truncating short."""
        node = armed(ClusterNode(
            "a", capacity_entries=8, directory=str(tmp_path / "a"),
            snapshot_every=100, wal_flush_ops=1,
        ))
        node.put("k", 1, "v")
        node.delete("absent-1")
        node.delete("absent-2")
        node.get("k")
        node.crash()
        recovered = node.recover_from_disk()
        # everything was flushed (wal_flush_ops=1): full log survives
        assert recovered == len(node.op_log) == 4
        assert node.get("k") == (True, (1, "v"))


class TestUnarmedLog:
    """A serving node keeps no operation log: memory is bounded by
    capacity, and recovery reports the engine-counted total."""

    def test_serving_node_logs_nothing_and_recovers_counted_total(
            self, tmp_path):
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
        assert node.op_log is None
        node.crash()
        recovered = node.recover_from_disk()
        stats = node.stats()
        assert recovered == stats.gets + stats.puts + stats.deletes
        assert counted - 4 < recovered <= counted  # one flush window
        assert node.op_log is None

    def test_rebuild_keeps_an_unarmed_log_unarmed(self):
        node = ClusterNode("a", capacity_entries=8)
        node.put("k", 1, "v")
        node.crash()
        node.rebuild_empty()
        assert node.op_log is None
