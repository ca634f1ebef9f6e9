"""Key fingerprinting: from hashable keys to tag-like integers.

The paper's machinery works on integer tags; the online engine works on
arbitrary application keys (strings, ints, bytes, tuples thereof). This
module bridges the two: every key gets a stable 64-bit *fingerprint*,
the online analogue of a cache tag. Fingerprints are

* deterministic across processes (unlike :func:`hash` on strings, which
  ``PYTHONHASHSEED`` randomizes) so experiments and checkpoint/resume
  runs are reproducible;
* well mixed in their high bits, which the sharded engine uses for
  shard routing (so routing stays independent of the *low* bits that
  partial fingerprints keep, mirroring how a set-indexed cache tags
  with the bits above the index);
* foldable down to a *partial fingerprint* via
  :func:`~repro.utils.bitops.xor_fold` — Section 3.1's partial-tag
  optimization applied to shadow directories.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.cache.tag_array import identity_tag
from repro.utils.bitops import is_power_of_two, mask

FINGERPRINT_BITS = 64

_MASK64 = (1 << FINGERPRINT_BITS) - 1

# Domain-separation prefixes so b"x", "x" and 120 cannot collide by
# construction (only by hash collision).
_PREFIX_STR = b"\x01"
_PREFIX_BYTES = b"\x02"
_PREFIX_TUPLE = b"\x03"


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: diffuse an integer over all 64 bits."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value


def _digest64(payload: bytes) -> int:
    """Stable 64-bit digest of a byte string."""
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


#: The last key fingerprinted and its print, as one tuple so a reader
#: never sees a key paired with another key's print. A request passes
#: the same key object through the ladder, the engine, the shard and
#: the fill, so this one entry turns their repeated digests into one.
#: Holding the reference keeps the key alive, so ``is`` cannot match a
#: new object that reuses a freed one's id. The initial key is a
#: private sentinel, so even ``None`` misses and is rejected.
_last = (object(), 0)


def key_fingerprint(key) -> int:
    """Stable 64-bit fingerprint of a cache key.

    Supported key types: ``int`` (mixed with SplitMix64 so sequential
    ids spread across shards), ``str`` / ``bytes`` (BLAKE2b digests
    with domain separation), and tuples of supported types (elementwise
    fingerprints combined order-sensitively).

    The most recent key is memoized by identity, not equality, so
    ``True`` and ``1`` (equal, distinct objects) never share a print.

    Raises:
        TypeError: for unsupported key types — explicit rejection beats
            silently unstable ``repr``-based hashing.
    """
    global _last
    last = _last
    if key is last[0]:
        return last[1]
    fingerprint = _fingerprint(key)
    _last = (key, fingerprint)
    return fingerprint


def _fingerprint(key) -> int:
    """:func:`key_fingerprint` without the memo."""
    if isinstance(key, bool):
        # bool is an int subclass; separate the domains explicitly.
        return _mix64(0x9D8A75 + int(key))
    if isinstance(key, int):
        return _mix64(key & _MASK64)
    if isinstance(key, str):
        return _digest64(_PREFIX_STR + key.encode("utf-8"))
    if isinstance(key, bytes):
        return _digest64(_PREFIX_BYTES + key)
    if isinstance(key, tuple):
        acc = _digest64(_PREFIX_TUPLE + len(key).to_bytes(8, "big"))
        for element in key:
            acc = _mix64(acc ^ _fingerprint(element))
        return acc
    raise TypeError(
        f"unsupported key type {type(key).__name__}; use int, str, "
        "bytes or tuples of those"
    )


def shard_routing(num_shards: int) -> Tuple[int, int]:
    """``(shift, mask)`` routing a fingerprint to its shard:
    ``(fingerprint >> shift) & mask``. Routing uses the fingerprint's
    *high* bits, so it never overlaps the low bits a partial
    fingerprint keeps — the same split a set-associative cache makes
    between index and tag fields.

    Args:
        num_shards: shard count; must be a power of two.
    """
    if not is_power_of_two(num_shards):
        raise ValueError(f"num_shards must be a power of two, got {num_shards}")
    return FINGERPRINT_BITS - (num_shards.bit_length() - 1), num_shards - 1


def partial_fingerprint_transform(bits):
    """Build a shadow-directory transform keeping ``bits``-wide prints.

    Returns :func:`~repro.cache.tag_array.identity_tag` for ``bits`` of
    None or >= 64, so exact directories take the identity fast paths;
    otherwise an XOR-fold down to ``bits`` bits (Section 3.1's "XOR of
    bit groups" variant — low-bit truncation would alias all keys within
    a shard run generated from a common prefix).
    """
    if bits is None or bits >= FINGERPRINT_BITS:
        return identity_tag
    if bits <= 0:
        raise ValueError(f"partial fingerprint width must be positive, "
                         f"got {bits}")
    # xor_fold(fingerprint, bits, 64) with the cascade's shifts and
    # mask worked out once: every access folds one print.
    shifts = []
    shift = bits
    while shift < FINGERPRINT_BITS:
        shifts.append(shift)
        shift <<= 1
    shifts = tuple(shifts)
    low = mask(bits)

    def fold(fingerprint: int) -> int:
        folded = fingerprint & _MASK64
        for step in shifts:
            folded ^= folded >> step
        return folded & low

    return fold
