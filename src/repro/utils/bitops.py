"""Bit-manipulation helpers used by cache geometry and partial tagging.

These mirror the arithmetic a hardware designer does when carving an
address into offset / index / tag fields, and when folding a full tag
down to a partial tag (Section 3.1 of the paper).
"""

from __future__ import annotations


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Integer log2 of a positive power of two.

    Raises:
        ValueError: if ``value`` is not a positive power of two. Cache
            geometry (line size, number of sets) must be a power of two,
            so a non-power-of-two here always indicates a config bug.
    """
    if not is_power_of_two(value):
        raise ValueError(f"expected a positive power of two, got {value!r}")
    return value.bit_length() - 1


def mask(bits: int) -> int:
    """Return an integer with the low ``bits`` bits set."""
    if bits < 0:
        raise ValueError(f"bit count must be non-negative, got {bits}")
    return (1 << bits) - 1


def low_bits(value: int, bits: int) -> int:
    """Keep only the low-order ``bits`` bits of ``value``.

    This is the paper's default partial-tag function: "typically the
    low-order bits of the tag".
    """
    return value & mask(bits)


def xor_fold(value: int, bits: int, width: int = 64) -> int:
    """Fold ``value`` down to ``bits`` bits by XOR-ing ``bits``-wide groups.

    The paper mentions "a combination (e.g., XOR of bit groups)" as an
    alternative partial-tag function; folding mixes high-order tag bits
    into the partial tag, which reduces aliasing for strided patterns
    whose low tag bits repeat.

    Args:
        value: the full tag.
        bits: width of the partial tag; must be positive.
        width: number of significant bits in ``value`` to fold over.
    """
    if bits <= 0:
        raise ValueError(f"partial tag width must be positive, got {bits}")
    # Shift-xor cascade: after shifting by bits, 2*bits, 4*bits, ... the
    # low group holds the XOR of every group the shifts have reached, so
    # the fold takes log2(width / bits) steps instead of one per group.
    folded = value & mask(width)
    shift = bits
    while shift < width:
        folded ^= folded >> shift
        shift <<= 1
    return folded & mask(bits)
