"""Partial tags (Section 3.1).

Instead of replicating full tags in the parallel arrays, the adaptive
cache can keep a small hash of each tag: the low-order bits, or an XOR
fold of bit groups. Partial tags make aliasing possible (two different
blocks look identical to the shadow array), which the paper shows is
harmless at 6+ bits (Figure 5) and cuts the storage overhead from ~9.9%
to ~4.0% at 8 bits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PartialTagScheme:
    """A callable mapping full tags to partial tags.

    Attributes:
        bits: width of the partial tag; the paper sweeps 4..12.
        method: ``"low"`` keeps the low-order bits (the paper's default,
            "no XOR'ing of tag bits"); ``"xor"`` folds the whole tag by
            XOR-ing ``bits``-wide groups.
    """

    bits: int
    method: str = "low"

    def __post_init__(self):
        if self.bits <= 0:
            raise ValueError(f"partial tag width must be positive, got {self.bits}")
        if self.method not in ("low", "xor"):
            raise ValueError(f"unknown partial tag method {self.method!r}")
        # The transform runs once per shadow array per access, so the
        # fold is precomputed: a cached width mask and a method flag
        # replace the per-call mask construction and string compare
        # (not dataclass fields — equality/hash/pickle are unchanged).
        object.__setattr__(self, "_mask", (1 << self.bits) - 1)
        object.__setattr__(self, "_is_low", self.method == "low")

    def __call__(self, tag: int) -> int:
        if self._is_low:
            return tag & self._mask
        folded = 0
        bits = self.bits
        mask_ = self._mask
        remaining = tag & ((1 << 64) - 1)
        while remaining:
            folded ^= remaining & mask_
            remaining >>= bits
        return folded


def full_tags(tag: int) -> int:
    """Identity transform: the full-tag (no aliasing) configuration."""
    return tag


FULL_TAG_WIDTH = 24


def stored_tag_width(transform) -> int:
    """Bit width of the tags a transform stores in the shadow arrays.

    A :class:`PartialTagScheme` reports its configured width; the
    full-tag identity transform has no inherent bound, so callers get
    :data:`FULL_TAG_WIDTH` (sized to the paper's 512 KB / 64-bit address
    geometry). The fault injector uses this to pick which bit of a
    stored tag to flip — flips must land inside the bits the hardware
    would actually hold.
    """
    bits = getattr(transform, "bits", None)
    if isinstance(bits, int) and bits > 0:
        return bits
    return FULL_TAG_WIDTH
