"""Back to the source: adaptive replacement for an OS page cache.

The paper's scheme came *from* virtual memory management (its Section 5
credits the authors' earlier VM work, where the OS simulates two
replacement policies in page-table-sized ghost structures and mimics
the better one). This example closes the loop: the same `repro`
machinery that drives the hardware experiments manages a simulated OS
page cache — 4 KB pages, a fully-associative "set", counters instead of
tag SRAM — and adapts between LRU and LFU for a database-like workload
that alternates index lookups (frequency-skewed) with table scans
(sequential, single-use).

Run:  python examples/page_cache.py
"""

from repro import CacheConfig, SetAssociativeCache, make_adaptive, make_policy
from repro.workloads.phases import concat_phases
from repro.workloads.synth import scan_with_hot, zipf_stream

PAGE_BYTES = 4096
MEMORY_PAGES = 512  # 2 MB of page-cache for the demo


def database_workload(accesses=80_000, seed=7):
    """Alternating OLTP-ish lookups and full-table scans, page-granular."""
    phases = []
    for epoch in range(4):
        # Index lookups: Zipf over the hot tables.
        phases.append(
            zipf_stream(4 * MEMORY_PAGES, accesses // 8, alpha=1.2,
                        seed=seed + epoch)
        )
        # Reporting query: scan a table much larger than memory while
        # the hot indexes keep being consulted.
        phases.append(
            scan_with_hot(
                MEMORY_PAGES // 4,
                8 * MEMORY_PAGES,
                accesses // 8,
                hot_fraction=0.3,
                seed=seed + 100 + epoch,
            )
        )
    return concat_phases(*phases)


def main():
    # A page cache is one big fully-associative set: ways = page count.
    config = CacheConfig(
        size_bytes=MEMORY_PAGES * PAGE_BYTES,
        ways=MEMORY_PAGES,
        line_bytes=PAGE_BYTES,
    )
    workload = database_workload()

    caches = {
        "LRU (classic page cache)": SetAssociativeCache(
            config, make_policy("lru", config.num_sets, config.ways)
        ),
        "LFU": SetAssociativeCache(
            config, make_policy("lfu", config.num_sets, config.ways)
        ),
        "Adaptive (LRU/LFU)": SetAssociativeCache(
            config, make_adaptive(config.num_sets, config.ways,
                                  ("lru", "lfu"))
        ),
    }
    for page in workload:
        address = page * PAGE_BYTES
        for cache in caches.values():
            cache.access(address)

    # A page fault costs ~milliseconds; a hit ~100ns. Report both.
    print(f"page cache: {MEMORY_PAGES} pages, "
          f"{len(workload)} references (OLTP lookups + table scans)\n")
    print(f"  {'policy':28s} {'faults':>8s}  {'fault ratio':>11s}")
    for name, cache in caches.items():
        stats = cache.stats
        print(f"  {name:28s} {stats.misses:8d}  {stats.miss_ratio:11.3f}")

    lru_faults = caches["LRU (classic page cache)"].stats.misses
    adaptive_faults = caches["Adaptive (LRU/LFU)"].stats.misses
    saved = lru_faults - adaptive_faults
    print(
        f"\nAdaptive saves {saved} page faults vs the classic LRU page "
        f"cache ({100 * saved / lru_faults:.1f}%)."
    )
    print(
        "At ~5 ms per fault that is "
        f"~{saved * 5 / 1000:.1f} s of I/O wait avoided on this trace — "
        "the VM-scale payoff that motivated the hardware scheme."
    )


if __name__ == "__main__":
    main()
