"""Unit tests for the shadow TagArray (parallel tag structures)."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.tag_array import TagArray, identity_tag
from repro.core.partial import PartialTagScheme
from repro.policies.lru import LRUPolicy


class TestGeometry:
    def test_policy_geometry_checked(self):
        with pytest.raises(ValueError, match="geometry"):
            TagArray(8, 4, LRUPolicy(4, 4))


class TestFullTagEquivalence:
    def test_mirrors_real_cache_exactly(self, small_config, random_blocks):
        """Invariant 2 of DESIGN.md: a full-tag shadow running policy P
        holds exactly the blocks of a real cache running P."""
        real = SetAssociativeCache(
            small_config, LRUPolicy(small_config.num_sets, small_config.ways)
        )
        shadow = TagArray(
            small_config.num_sets,
            small_config.ways,
            LRUPolicy(small_config.num_sets, small_config.ways),
        )
        for block in random_blocks(length=5000, universe=800, seed=5):
            address = block * small_config.line_bytes
            set_index = small_config.set_index(address)
            tag = small_config.tag(address)
            real_result = real.access(address)
            shadow_result = shadow.lookup_update(set_index, tag)
            assert real_result.hit == (not shadow_result.missed)
            if real_result.evicted_tag is not None:
                assert shadow_result.victim_tag == real_result.evicted_tag
        assert shadow.misses == real.stats.misses
        for set_index in range(small_config.num_sets):
            assert sorted(shadow.resident_tags(set_index)) == sorted(
                real.sets[set_index].resident_tags()
            )

    def test_per_set_miss_counts(self, tiny_config):
        shadow = TagArray(
            tiny_config.num_sets,
            tiny_config.ways,
            LRUPolicy(tiny_config.num_sets, tiny_config.ways),
        )
        for tag in range(6):
            shadow.lookup_update(1, tag)
        assert shadow.per_set_misses[1] == 6
        assert shadow.per_set_misses[0] == 0
        assert shadow.misses == 6


class TestPartialTags:
    def test_aliasing_produces_false_hit(self):
        shadow = TagArray(4, 4, LRUPolicy(4, 4),
                          tag_transform=PartialTagScheme(4))
        shadow.lookup_update(0, 0x01)
        # 0x11 aliases 0x01 under 4-bit low-order partial tags.
        outcome = shadow.lookup_update(0, 0x11)
        assert not outcome.missed

    def test_distinct_partials_coexist(self):
        shadow = TagArray(4, 4, LRUPolicy(4, 4),
                          tag_transform=PartialTagScheme(4))
        shadow.lookup_update(0, 0x01)
        outcome = shadow.lookup_update(0, 0x02)
        assert outcome.missed
        assert shadow.contains_stored(0, shadow.tag_transform(0x01))
        assert shadow.contains_stored(0, shadow.tag_transform(0x02))

    def test_aliases_share_a_stored_tag(self):
        scheme = PartialTagScheme(4)
        shadow = TagArray(4, 4, LRUPolicy(4, 4), tag_transform=scheme)
        shadow.lookup_update(2, 0xAB)
        assert scheme(0xAB) == scheme(0x1B) == 0xB  # 0x1B aliases 0xAB
        assert shadow.contains_stored(2, 0xB)
        assert not shadow.contains_stored(2, 0xA)

    def test_partial_misses_at_most_full(self, small_config, random_blocks):
        """Aliasing can only convert misses into (false) hits, so a
        partially-tagged shadow never misses more than a full one."""
        blocks = random_blocks(length=4000, universe=1000, seed=9)
        full = TagArray(
            small_config.num_sets, small_config.ways,
            LRUPolicy(small_config.num_sets, small_config.ways),
        )
        partial = TagArray(
            small_config.num_sets, small_config.ways,
            LRUPolicy(small_config.num_sets, small_config.ways),
            tag_transform=PartialTagScheme(6),
        )
        for block in blocks:
            address = block * small_config.line_bytes
            set_index = small_config.set_index(address)
            tag = small_config.tag(address)
            full.lookup_update(set_index, tag)
            partial.lookup_update(set_index, tag)
        assert partial.misses <= full.misses

    def test_wide_partial_tags_nearly_exact(self, small_config, random_blocks):
        """With 12-bit tags over a small universe, aliasing is rare and
        the shadow behaves like a full-tag one (Figure 5's regime)."""
        blocks = random_blocks(length=4000, universe=1000, seed=10)
        full_misses = 0
        partial_misses = 0
        full = TagArray(
            small_config.num_sets, small_config.ways,
            LRUPolicy(small_config.num_sets, small_config.ways),
        )
        partial = TagArray(
            small_config.num_sets, small_config.ways,
            LRUPolicy(small_config.num_sets, small_config.ways),
            tag_transform=PartialTagScheme(12),
        )
        for block in blocks:
            address = block * small_config.line_bytes
            set_index = small_config.set_index(address)
            tag = small_config.tag(address)
            full_misses += full.lookup_update(set_index, tag).missed
            partial_misses += partial.lookup_update(set_index, tag).missed
        assert partial_misses >= 0.99 * full_misses


class TestIdentityTransform:
    def test_identity(self):
        assert identity_tag(12345) == 12345
