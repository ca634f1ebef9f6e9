"""Unit tests for key fingerprints, shard routing and partial folding."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.tag_array import identity_tag
from repro.online.engine import AdaptiveKVCache
from repro.online.keyspace import (
    FINGERPRINT_BITS,
    _fingerprint,
    key_fingerprint,
    partial_fingerprint_transform,
    shard_routing,
)
from repro.online.policies import build_shard_policy
from repro.utils.bitops import xor_fold


class TestKeyFingerprint:
    def test_deterministic_across_types(self):
        for key in [0, 1, -17, 2**80, "k", "", b"bytes", ("a", 3), True]:
            assert key_fingerprint(key) == key_fingerprint(key)

    def test_in_range(self):
        for key in [0, "x", b"y", ("t", 1), 12345678901234567890]:
            fp = key_fingerprint(key)
            assert 0 <= fp < 2**FINGERPRINT_BITS

    def test_distinct_types_distinct_universes(self):
        # "1" the string, 1 the int and (1,) the tuple must not collide
        # (domain separation).
        fps = {key_fingerprint(k) for k in ["1", 1, (1,), b"1"]}
        assert len(fps) == 4

    def test_bool_is_not_int(self):
        assert key_fingerprint(True) != key_fingerprint(1)

    def test_spread(self):
        # splitmix64 on sequential ints should spread well across
        # shards even though the inputs differ only in low bits.
        counts = [0] * 8
        for i in range(8000):
            counts[shard_of(key_fingerprint(i), 8)] += 1
        assert min(counts) > 500

    def test_unhashable_and_unsupported_rejected(self):
        with pytest.raises(TypeError):
            key_fingerprint([1, 2])
        with pytest.raises(TypeError):
            key_fingerprint(1.5)

    def test_nested_tuples(self):
        assert key_fingerprint((("a", 1), "b")) != key_fingerprint(("a", 1, "b"))


class TestFingerprintMemo:
    """The one-entry memo matches keys by identity: equal but distinct
    objects, and distinct objects that compare equal, are fingerprinted
    afresh."""

    def test_equal_keys_of_other_types_are_not_served_from_the_memo(self):
        pairs = [(True, 1), (1, True), ((True,), (1,)), ((1,), (True,))]
        for first, second in pairs:
            assert first == second
            assert key_fingerprint(first) == _fingerprint(first)
            assert key_fingerprint(second) == _fingerprint(second)
            assert key_fingerprint(first) != key_fingerprint(second)

    def test_equal_but_distinct_strings(self):
        first = "".join(["sha", "red"])
        second = "".join(["sh", "ared"])
        assert first == second and first is not second
        assert key_fingerprint(first) == _fingerprint(first)
        assert key_fingerprint(second) == _fingerprint(first)

    def test_unsupported_key_raises_after_a_memo_hit(self):
        key = ("a", 1)
        assert key_fingerprint(key) == key_fingerprint(key)
        for bad in ([1, 2], 1.5, None, ("a", [1])):
            with pytest.raises(TypeError):
                key_fingerprint(bad)
        assert key_fingerprint(key) == _fingerprint(key)

    def test_threads_agree_with_the_unmemoized_function(self):
        errors = []

        def worker(offset):
            keys = [(offset, i) if i % 3 else f"{offset}:{i}"
                    for i in range(2000)]
            for key in keys:
                for _ in range(2):
                    if key_fingerprint(key) != _fingerprint(key):
                        errors.append(key)

        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []


def shard_of(fingerprint, num_shards):
    """A fingerprint's shard by :func:`shard_routing`, per key."""
    shift, mask = shard_routing(num_shards)
    return (fingerprint >> shift) & mask


class TestShardOf:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError, match="power of two"):
            shard_of(123, 6)

    def test_single_shard(self):
        assert shard_of(key_fingerprint("k"), 1) == 0

    def test_uses_high_bits(self):
        # Fingerprints differing only in low bits map to one shard, so
        # partial fingerprints (low-bit folds) stay shard-independent.
        base = 0xABCD << 48
        assert all(shard_of(base | low, 16) == shard_of(base, 16)
                   for low in range(64))

    @pytest.mark.parametrize("num_shards", [1 << k for k in range(9)])
    def test_engine_routes_as_shard_of(self, num_shards):
        engine = AdaptiveKVCache(capacity_entries=num_shards,
                                 num_shards=num_shards, policy="lru")
        keys = list(range(300)) + [f"user:{i}" for i in range(300)] + [
            b"bytes", ("tuple", 7), True, -1, 2**80,
        ]
        for key in keys:
            assert engine.shard_index(key) == shard_of(
                key_fingerprint(key), num_shards
            )


class TestPartialTransform:
    def test_identity_when_full(self):
        assert partial_fingerprint_transform(None)(12345) == 12345
        assert partial_fingerprint_transform(64)(2**63) == 2**63

    def test_full_width_is_identity_tag(self):
        assert partial_fingerprint_transform(None) is identity_tag
        assert partial_fingerprint_transform(64) is identity_tag

    def test_exact_shard_directories_take_identity_paths(self):
        policy = build_shard_policy("adaptive", 8, partial_bits=None)
        assert policy._identity
        assert all(shadow._identity for shadow in policy.shadows)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.integers(min_value=0,
                                       max_value=2**FINGERPRINT_BITS - 1),
                           min_size=1, max_size=20))
    def test_fold_matches_group_xor_at_every_width(self, values):
        def group_xor(value, bits):
            folded = 0
            while value:
                folded ^= value & ((1 << bits) - 1)
                value >>= bits
            return folded

        for bits in range(1, FINGERPRINT_BITS + 1):
            fold = partial_fingerprint_transform(bits)
            for value in values:
                expected = group_xor(value, bits)
                assert xor_fold(value, bits, FINGERPRINT_BITS) == expected
                assert fold(value) == expected

    def test_fold_is_xor_fold_at_every_partial_width(self):
        rng = random.Random(30)
        prints = [0, 2**FINGERPRINT_BITS - 1] + [
            rng.getrandbits(FINGERPRINT_BITS) for _ in range(200)
        ]
        for bits in range(1, FINGERPRINT_BITS):
            fold = partial_fingerprint_transform(bits)
            for fingerprint in prints:
                assert fold(fingerprint) == xor_fold(
                    fingerprint, bits, FINGERPRINT_BITS
                )

    def test_folds_to_width(self):
        fold = partial_fingerprint_transform(12)
        for fp in [0, 1, 2**64 - 1, key_fingerprint("k")]:
            assert 0 <= fold(fp) < 2**12

    def test_fold_collides_but_preserves_equality(self):
        fold = partial_fingerprint_transform(8)
        fp = key_fingerprint("collide")
        assert fold(fp) == fold(fp)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            partial_fingerprint_transform(0)
