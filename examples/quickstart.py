"""Quickstart: build an adaptive cache and watch it track the better policy.

Runs three caches — LRU, LFU, and an LRU/LFU adaptive cache — over two
very different access patterns and prints their miss ratios. The
adaptive cache matches the better component on both patterns, which is
the paper's core claim.

Run:  python examples/quickstart.py
"""

from repro import CacheConfig, SetAssociativeCache, make_adaptive, make_policy
from repro.workloads.synth import drifting_working_set, scan_with_hot


def run_pattern(label, line_stream, config):
    """Simulate the three caches on one line stream; print miss ratios."""
    caches = {
        "LRU": SetAssociativeCache(
            config, make_policy("lru", config.num_sets, config.ways)
        ),
        "LFU": SetAssociativeCache(
            config, make_policy("lfu", config.num_sets, config.ways)
        ),
        "Adaptive": SetAssociativeCache(
            config, make_adaptive(config.num_sets, config.ways, ("lru", "lfu"))
        ),
    }
    for line in line_stream:
        address = line * config.line_bytes
        for cache in caches.values():
            cache.access(address)
    print(f"\n{label}:")
    for name, cache in caches.items():
        print(f"  {name:8s} miss ratio = {cache.stats.miss_ratio:.3f}")
    best = min(caches, key=lambda n: caches[n].stats.miss_ratio)
    print(f"  -> best: {best}")


def main():
    # A small cache so the patterns fit in a quick demo: 16 KB, 8-way.
    config = CacheConfig(size_bytes=16 * 1024, ways=8, line_bytes=64)

    # Pattern 1: a slowly drifting working set. Recency (LRU) tracks the
    # drift; frequency (LFU) clings to stale blocks.
    drift = drifting_working_set(
        hot_lines=int(0.9 * config.num_lines),
        accesses=60_000,
        drift_per_kaccess=20.0,
        seed=1,
    )
    run_pattern("Drifting working set (LRU-friendly)", drift, config)

    # Pattern 2: a reused hot set plus a one-pass streaming scan — the
    # media pattern. LFU shields the hot set; LRU lets the scan evict it.
    scan = scan_with_hot(
        hot_lines=int(0.4 * config.num_lines),
        scan_lines=8 * config.num_lines,
        accesses=60_000,
        hot_fraction=0.5,
        seed=2,
    )
    run_pattern("Hot set + streaming scan (LFU-friendly)", scan, config)

    print(
        "\nThe adaptive cache tracked the better component policy on both "
        "patterns\nwithout being told which one that was."
    )


if __name__ == "__main__":
    main()
