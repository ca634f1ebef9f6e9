"""Design-space exploration: policy pairs, partial tags, SBAR.

Uses the suite's named workloads to answer three practical questions a
cache architect would ask of this library:

1. Which pair of component policies is worth adapting over?
   (The paper found LRU+LFU best; FIFO+MRU interesting but weaker.)
2. How narrow can the partial tags get before adaptivity degrades?
3. How close does cheap set sampling (SBAR) get to full adaptivity?

Run:  python examples/design_space.py
"""

from repro import CacheConfig, SetAssociativeCache
from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import render_table
from repro.core.multi import make_adaptive
from repro.core.partial import PartialTagScheme
from repro.experiments.base import build_l2_policy
from repro.workloads.suite import build_workload

WORKLOADS = ["lucas", "art-1", "tiff2rgba", "bzip2", "mcf", "ammp"]


def miss_ratio(config, policy, traces):
    """Average miss ratio of ``policy`` over the prepared traces."""
    ratios = []
    for trace in traces:
        cache = SetAssociativeCache(config, policy())
        for kind, address, _gap in trace.memory_records():
            cache.access(address, is_write=(kind == 1))
        ratios.append(cache.stats.miss_ratio)
    return arithmetic_mean(ratios)


def main():
    config = CacheConfig(size_bytes=32 * 1024, ways=8, line_bytes=64)
    traces = [
        build_workload(name, config, accesses=25_000) for name in WORKLOADS
    ]

    # 1. Component-pair shoot-out.
    pairs = [("lru", "lfu"), ("fifo", "mru"), ("lru", "fifo"),
             ("lfu", "mru"), ("lru", "random")]
    rows = []
    for pair in pairs:
        avg = miss_ratio(
            config,
            lambda pair=pair: make_adaptive(config.num_sets, config.ways, pair),
            traces,
        )
        rows.append(["+".join(pair), avg])
    rows.sort(key=lambda r: r[1])
    print(render_table(["component pair", "avg miss ratio"], rows,
                       title="1. Which policies to adapt over?"))

    # 2. Partial-tag width sweep.
    rows = []
    for bits in (None, 12, 8, 6, 4, 2):
        label = "full" if bits is None else f"{bits}-bit"
        transform = {} if bits is None else {
            "tag_transform": PartialTagScheme(bits)
        }
        avg = miss_ratio(
            config,
            lambda transform=transform: make_adaptive(
                config.num_sets, config.ways, ("lru", "lfu"), **transform
            ),
            traces,
        )
        rows.append([label, avg])
    print()
    print(render_table(["tag width", "avg miss ratio"], rows,
                       title="2. How narrow can partial tags get?"))

    # 3. Full adaptivity vs SBAR set sampling.
    rows = []
    for label, kind, kwargs in [
        ("adaptive (full)", "adaptive", {}),
        ("SBAR, 16 leaders", "sbar", {"num_leaders": 16}),
        ("SBAR, 4 leaders", "sbar", {"num_leaders": 4}),
        ("plain LRU", "lru", {}),
    ]:
        avg = miss_ratio(
            config,
            lambda kind=kind, kwargs=kwargs: build_l2_policy(
                config, kind, ("lru", "lfu"), **kwargs
            ),
            traces,
        )
        rows.append([label, avg])
    print()
    print(render_table(["configuration", "avg miss ratio"], rows,
                       title="3. How close does set sampling get?"))


if __name__ == "__main__":
    main()
