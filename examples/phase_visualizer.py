"""Visualize where and when each policy wins (the paper's Figure 7).

Builds the ammp-style phase-switching workload, runs it through an
adaptive cache, and prints the per-set decision map: '#' marks time
quanta where a set's replacement decisions followed LRU, '.' where they
followed LFU. The phase structure — columns flipping character — is the
behaviour that lets adaptivity beat both of its components at once.

Run:  python examples/phase_visualizer.py
"""

from repro import CacheConfig, SetAssociativeCache, make_adaptive
from repro.analysis.setmap import collect_setmap
from repro.workloads.suite import build_workload


def main():
    config = CacheConfig(size_bytes=16 * 1024, ways=8, line_bytes=64)
    trace = build_workload("ammp", config, accesses=48_000)

    policy = make_adaptive(config.num_sets, config.ways, ("lru", "lfu"))
    cache = SetAssociativeCache(config, policy)
    setmap = collect_setmap(
        trace, cache, sample_every=trace.memory_access_count() // 24
    )

    print("ammp-style workload, one row per cache set, time left to right")
    print("'#' = LRU-majority quantum, '.' = LFU-majority, ' ' = no evictions")
    print()
    print(setmap.render())
    print()
    for quantum in range(setmap.num_samples):
        frac = setmap.component_fraction(1, sample=quantum)
        bar = "*" * int(round(frac * 40))
        print(f"q{quantum:02d} LFU share {frac:5.1%} |{bar}")

    overall_lfu = setmap.component_fraction(1)
    print(
        f"\nOverall, {overall_lfu:.1%} of deciding (set, quantum) cells "
        "followed LFU —\nthe rest followed LRU. Neither fixed policy could "
        "serve both regions."
    )


if __name__ == "__main__":
    main()
