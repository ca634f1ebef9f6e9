"""Unit tests for repro.utils.bitops."""

import pytest

from repro.utils.bitops import ilog2, is_power_of_two, mask, xor_fold


class TestIsPowerOfTwo:
    def test_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_non_powers(self):
        for value in (0, 3, 5, 6, 7, 9, 12, 100, -1, -2, -4):
            assert not is_power_of_two(value)


class TestIlog2:
    def test_exact(self):
        for exponent in range(30):
            assert ilog2(1 << exponent) == exponent

    @pytest.mark.parametrize("bad", [0, -1, 3, 6, 100])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ValueError):
            ilog2(bad)


class TestMask:
    def test_values(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(16) == 0xFFFF

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)




class TestXorFold:
    def test_small_value_unchanged(self):
        # Values already narrower than the fold width pass through.
        assert xor_fold(0x3, 8) == 0x3

    def test_folds_groups(self):
        # 0xAB in the high group XORs into 0xCD in the low group.
        assert xor_fold(0xABCD, 8) == 0xAB ^ 0xCD

    def test_three_groups(self):
        assert xor_fold(0x010203, 8) == 0x01 ^ 0x02 ^ 0x03

    def test_result_fits_width(self):
        for value in (0, 1, 0xDEADBEEF, (1 << 40) - 1):
            assert 0 <= xor_fold(value, 6) < (1 << 6)

    def test_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            xor_fold(0xFF, 0)

    def test_distinguishes_high_bits(self):
        # Unlike keeping the low bits, folding sees tag bits above the
        # window.
        a = 0x1_0000_0001
        b = 0x2_0000_0001
        assert a & mask(8) == b & mask(8)
        assert xor_fold(a, 8) != xor_fold(b, 8)
