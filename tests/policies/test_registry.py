"""Unit tests for the policy registry."""

import pytest

from repro.policies.base import ReplacementPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.registry import (
    available_policies,
    make_policy,
    register_policy,
)


class TestRegistry:
    def test_builtins_present(self):
        names = available_policies()
        for expected in ("lru", "lfu", "fifo", "mru", "random", "srrip"):
            assert expected in names

    def test_make_policy_geometry(self):
        policy = make_policy("lru", 16, 4)
        assert policy.num_sets == 16
        assert policy.ways == 4
        assert policy.name == "lru"

    def test_kwargs_forwarded(self):
        policy = make_policy("lfu", 8, 4, counter_bits=3)
        assert policy.counter_bits == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("optimal-from-the-future", 8, 4)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("lru", lambda s, w: None)

    def test_custom_registration(self):
        class AlwaysWayZero(ReplacementPolicy):
            name = "way-zero"

            def on_hit(self, set_index, way):
                pass

            def on_fill(self, set_index, way, tag):
                pass

            def victim(self, set_index, set_view):
                return set_view.valid_ways()[0]

        register_policy("test-way-zero", AlwaysWayZero)
        policy = make_policy("test-way-zero", 4, 2)
        assert isinstance(policy, AlwaysWayZero)


#: The policies ``repro.policies.registry`` registers itself.
BUILT_INS = ["bip", "ehc", "fifo", "lfu", "lru", "mru", "random", "srrip"]


class TestRegistryIsolation:
    """The autouse fixture in ``tests/conftest.py`` restores the
    registry after every test; these run in file order."""

    def test_a_registration_lives_for_its_test(self):
        register_policy("test-scoped", LRUPolicy)
        assert available_policies() == sorted(BUILT_INS + ["test-scoped"])

    def test_b_next_test_sees_only_the_built_ins(self):
        assert available_policies() == BUILT_INS


class TestBaseValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            LRUPolicy(0, 4)
        with pytest.raises(ValueError):
            LRUPolicy(4, 0)
