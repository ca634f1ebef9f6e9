"""Set-associative cache simulator substrate.

This package provides the conventional machinery the paper's adaptive
scheme sits on top of: cache geometry and address decomposition
(:class:`~repro.cache.config.CacheConfig`), a set-associative cache
with pluggable replacement
(:class:`~repro.cache.cache.SetAssociativeCache`), tags-only shadow
arrays (:class:`~repro.cache.tag_array.TagArray` — the paper's
"parallel tag structures"), the SRAM storage-overhead accounting of
Section 3.2, and the skewed-associative variant. The L1/L2/memory path
itself is modeled by the timing model (:mod:`repro.cpu.timing`), not
here.
"""
