"""Set-associative cache simulator substrate.

This package provides the conventional machinery the paper's adaptive
scheme sits on top of: cache geometry and address decomposition
(:class:`CacheConfig`), a set-associative cache with pluggable
replacement (:class:`SetAssociativeCache`), tags-only shadow arrays
(:class:`TagArray` — the paper's "parallel tag structures"), the SRAM
storage-overhead accounting of Section 3.2, and the skewed-associative
variant. The L1/L2/memory path itself is modeled by the timing model
(:mod:`repro.cpu.timing`), not here.
"""

from repro.cache.config import CacheConfig
from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.cache_set import CacheSet
from repro.cache.stats import CacheStats
from repro.cache.tag_array import TagArray
from repro.cache.overhead import StorageModel
from repro.cache.skewed import SkewedAccessResult, SkewedAssociativeCache

__all__ = [
    "CacheConfig",
    "AccessResult",
    "SetAssociativeCache",
    "CacheSet",
    "CacheStats",
    "TagArray",
    "StorageModel",
    "SkewedAccessResult",
    "SkewedAssociativeCache",
]
