"""Unit tests for partial tag schemes."""

import pytest

from repro.core.partial import PartialTagScheme


class TestLowBits:
    def test_width(self):
        scheme = PartialTagScheme(8)
        for tag in (0, 1, 0xFF, 0x100, 0xDEADBEEF):
            assert 0 <= scheme(tag) < 256

    def test_low_order_kept(self):
        scheme = PartialTagScheme(8)
        assert scheme(0x12345) == 0x45
        assert scheme(0xFF) == 0xFF

    def test_aliasing(self):
        scheme = PartialTagScheme(8)
        assert scheme(0x1AB) == scheme(0x2AB)

    def test_wide_tags_exact_for_small_values(self):
        scheme = PartialTagScheme(12)
        for tag in range(4096):
            assert scheme(tag) == tag


class TestXorFold:
    def test_width(self):
        scheme = PartialTagScheme(6, method="xor")
        for tag in (0, 0xFFFF, 0xABCDEF0123):
            assert 0 <= scheme(tag) < 64

    def test_sees_high_bits(self):
        low = PartialTagScheme(8, method="low")
        xor = PartialTagScheme(8, method="xor")
        a, b = 0x1_0000_0042, 0x7_0000_0042
        assert low(a) == low(b)
        assert xor(a) != xor(b)


class TestValidation:
    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            PartialTagScheme(0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            PartialTagScheme(8, method="sha256")

    def test_scheme_is_hashable_value(self):
        assert PartialTagScheme(8) == PartialTagScheme(8)
        assert PartialTagScheme(8) != PartialTagScheme(6)
