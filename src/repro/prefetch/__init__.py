"""Adaptive hybrid prefetching — the paper's Section 6 future work.

The conclusions propose extending the adaptivity scheme to hybrid
hardware prefetchers, with "hit/miss replaced by useful/not-useful
prefetch". This package realizes that: component prefetchers (next-line
and stride) generate candidate prefetches, a usefulness history — the
same sliding-window machinery as the cache's miss history — scores each
component, and the hybrid issues only the currently-better component's
prefetches.
"""
