"""Routing properties of the consistent-hash ring.

The two properties the cluster's placement rests on, checked over
Zipf key streams (the canonical skewed workload):

* **Balance** — with virtual nodes, per-node load stays within a
  constant factor of uniform (chi-square over the observed per-node
  access counts, against the uniform expectation, stays bounded).
* **Minimal movement** — a join or leave remaps only about K/n of the
  keyspace; every remapped key's new preference list involves the
  node that changed.

The memoized preference order per arc is also checked against a fresh
clockwise walk, before and after a join clears the memo.
"""

import bisect
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.online.keyspace import key_fingerprint
from repro.workloads.keystreams import zipf_keys


def build_ring(n, vnodes=DEFAULT_VNODES):
    ring = HashRing(vnodes=vnodes)
    for index in range(n):
        ring.add_node(f"n{index}")
    return ring


def primary(ring, fingerprint):
    """The first owner clockwise of ``fingerprint``."""
    return ring.owners(fingerprint, 1)[0]


def assignment(ring, fingerprints, n):
    """The ``n``-owner preference list of each fingerprint."""
    return [tuple(ring.owners(fp, n)) for fp in fingerprints]


def chi_square(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


class TestMembership:
    def test_members(self):
        ring = build_ring(4)
        assert len(ring) == 4
        assert all(f"n{index}" in ring for index in range(4))
        assert "n2" in ring and "n4" not in ring

    def test_duplicate_member_rejected(self):
        ring = build_ring(2)
        with pytest.raises(ValueError):
            ring.add_node("n0")

    def test_empty_ring_routes_nothing(self):
        assert HashRing().owners(123, 3) == []

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestPreferenceLists:
    def test_owners_distinct_and_capped(self):
        ring = build_ring(4)
        for key in range(200):
            owners = ring.owners(key_fingerprint(key), 3)
            assert len(owners) == 3
            assert len(set(owners)) == 3
        # asking for more replicas than members caps at the membership
        assert len(ring.owners(key_fingerprint(1), 10)) == 4

    def test_placement_is_deterministic(self):
        fingerprints = [key_fingerprint(k) for k in range(500)]
        first = assignment(build_ring(5), fingerprints, 3)
        second = assignment(build_ring(5), fingerprints, 3)
        assert first == second


class TestBalance:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_keyspace_balance_over_zipf_stream(self, n):
        """Chi-square of per-node keyspace share stays bounded.

        The stream is Zipf (few hot keys, long tail), but fingerprints
        scatter its *distinct keys* uniformly around the ring, so each
        node's share of the touched keyspace should stay within a
        constant factor of uniform. (Access-weighted load is a
        property of the workload, not the ring: wherever the hottest
        key lands serves its traffic.) The bound is loose —
        consistent hashing trades perfect balance for minimal
        movement — and catches gross imbalance like a collapsed arc.
        """
        ring = build_ring(n)
        stream = zipf_keys(universe=4000, accesses=12000, seed=n)
        keys = set(stream)
        assert len(keys) > 1000  # the tail really is long
        loads = Counter(primary(ring, key_fingerprint(k)) for k in keys)
        assert len(loads) == n  # every node owns a share
        expected = len(keys) / n
        # Normalized chi-square: mean squared relative deviation.
        statistic = chi_square(loads.values(), expected) / len(keys)
        assert statistic < 0.08, dict(loads)
        assert max(loads.values()) < 1.8 * expected
        assert min(loads.values()) > 0.4 * expected

    def test_more_vnodes_means_tighter_balance(self):
        fingerprints = [key_fingerprint(("b", k)) for k in range(8000)]

        def spread(vnodes):
            ring = build_ring(5, vnodes=vnodes)
            loads = Counter(primary(ring, fp) for fp in fingerprints)
            expected = len(fingerprints) / 5
            return chi_square(loads.values(), expected)

        assert spread(128) < spread(4)


class TestMinimalMovement:
    @pytest.mark.parametrize("n", [4, 7])
    def test_join_moves_about_k_over_n(self, n):
        """A join remaps ~K/(n+1) primaries, all onto the new node."""
        fingerprints = [key_fingerprint(("m", k)) for k in range(6000)]
        ring = build_ring(n)
        before = [primary(ring, fp) for fp in fingerprints]
        ring.add_node("joiner")
        after = [primary(ring, fp) for fp in fingerprints]
        moved = [
            (a, b) for a, b in zip(before, after) if a != b
        ]
        expected = len(fingerprints) / (n + 1)
        assert 0.4 * expected <= len(moved) <= 2.0 * expected
        # every remapped key lands on the joiner — nothing else shuffles
        assert all(b == "joiner" for _a, b in moved)

    @pytest.mark.parametrize("n", [4, 7])
    def test_leave_moves_only_the_leavers_keys(self, n):
        fingerprints = [key_fingerprint(("m", k)) for k in range(6000)]
        ring = build_ring(n)
        before = [primary(ring, fp) for fp in fingerprints]
        # A ring is a function of its members: leaving is the ring
        # built without the leaver.
        ring = HashRing()
        for index in range(n):
            if index != 1:
                ring.add_node(f"n{index}")
        after = [primary(ring, fp) for fp in fingerprints]
        moved = [(a, b) for a, b in zip(before, after) if a != b]
        # exactly the departed node's keys move, nowhere else
        assert all(a == "n1" for a, _b in moved)
        assert {a for a in before if a == "n1"} == {"n1"}
        expected = len(fingerprints) / n
        assert 0.4 * expected <= len(moved) <= 2.0 * expected

    def test_placement_ignores_join_order(self):
        fingerprints = [key_fingerprint(("r", k)) for k in range(2000)]
        reversed_ring = HashRing()
        for index in reversed(range(5)):
            reversed_ring.add_node(f"n{index}")
        assert (assignment(reversed_ring, fingerprints, 3)
                == assignment(build_ring(5), fingerprints, 3))

    def test_replica_lists_mostly_stable_across_join(self):
        """Non-primary replicas barely move either: the fraction of
        keys whose 3-owner preference list changes at all is ~3K/(n+1),
        not a full reshuffle."""
        fingerprints = [key_fingerprint(("s", k)) for k in range(6000)]
        ring = build_ring(7)
        before = assignment(ring, fingerprints, 3)
        ring.add_node("joiner")
        after = assignment(ring, fingerprints, 3)
        changed = sum(1 for a, b in zip(before, after) if a != b)
        assert changed <= 2.0 * 3 * len(fingerprints) / 8


def clockwise(members, vnodes, fingerprint):
    """Every member once, clockwise of ``fingerprint``, walked point by
    point over a ring rebuilt from scratch."""
    points = sorted((key_fingerprint(("vnode", member, index)), member)
                    for member in members for index in range(vnodes))
    start = bisect.bisect_right([point for point, _ in points], fingerprint)
    order = []
    for step in range(len(points)):
        owner = points[(start + step) % len(points)][1]
        if owner not in order:
            order.append(owner)
    return order


class TestArcMemo:
    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 5), vnodes=st.integers(1, 6),
           salt=st.integers(0, 1000))
    def test_memoized_owners_match_the_walk(self, count, vnodes, salt):
        """Every arc and every ``n`` up to the membership answer as the
        clockwise walk does, both before and after a join that follows
        queries (the join clears the memo)."""
        members = [f"m{salt}-{index}" for index in range(count)]
        ring = HashRing(vnodes=vnodes)
        for member in members:
            ring.add_node(member)

        def check():
            points = sorted(key_fingerprint(("vnode", member, index))
                            for member in members
                            for index in range(vnodes))
            # One fingerprint per arc: before the first point, then on
            # each point (bisect_right puts it on the next arc).
            for fingerprint in [points[0] - 1] + points:
                order = clockwise(members, vnodes, fingerprint)
                for n in range(1, len(members) + 1):
                    assert ring.owners(fingerprint, n) == order[:n]
                    assert ring.owners(fingerprint, n) == order[:n]  # memo

        check()
        members.append(f"m{salt}-joiner")
        ring.add_node(members[-1])
        check()
