"""Extending the library: write a policy, duel it against the world.

Implements Segmented LRU (SLRU) — a protected/probationary two-segment
policy used in real storage systems — in ~40 lines against the
`ReplacementPolicy` interface, registers it, and then:

1. races it against the built-ins on a mixed workload,
2. drops it straight into an adaptive cache as a component, and
3. set-duels it against LRU with `SbarPolicy` (a DIP-style duel).

No library code is modified: policies are pure plug-ins (see
docs/extending-policies.md).

Run:  python examples/custom_policy.py
"""

from repro import CacheConfig, SetAssociativeCache, make_policy
from repro.core.adaptive import AdaptivePolicy
from repro.experiments.base import build_l2_policy
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register_policy
from repro.workloads.phases import interleave_streams
from repro.workloads.synth import scan_with_hot, working_set


class SegmentedLRUPolicy(ReplacementPolicy):
    """SLRU: blocks must earn protection with a second touch.

    New fills are *probationary*; a hit promotes to *protected*.
    Victims come from the probationary blocks first (oldest first), so
    single-use scans churn through probation without disturbing the
    protected working set.
    """

    name = "slru"

    def __init__(self, num_sets, ways, protected_fraction=0.5):
        super().__init__(num_sets, ways)
        self.max_protected = max(1, int(protected_fraction * ways))
        self._clock = 0
        self._stamp = [[0] * ways for _ in range(num_sets)]
        self._protected = [[False] * ways for _ in range(num_sets)]

    def _touch(self, set_index, way):
        self._clock += 1
        self._stamp[set_index][way] = self._clock

    def on_hit(self, set_index, way):
        self._touch(set_index, way)
        protected = self._protected[set_index]
        if not protected[way]:
            if sum(protected) >= self.max_protected:
                # Demote the least recent protected block.
                stamps = self._stamp[set_index]
                oldest = min(
                    (w for w in range(self.ways) if protected[w]),
                    key=stamps.__getitem__,
                )
                protected[oldest] = False
            protected[way] = True

    def on_fill(self, set_index, way, tag):
        self._touch(set_index, way)
        self._protected[set_index][way] = False  # probationary

    def victim(self, set_index, set_view):
        stamps = self._stamp[set_index]
        protected = self._protected[set_index]
        probationary = [
            w for w in set_view.valid_ways() if not protected[w]
        ]
        candidates = probationary or set_view.valid_ways()
        return min(candidates, key=stamps.__getitem__)


def build_workload(config):
    """Scans polluting a reused working set — SLRU's home turf."""
    return interleave_streams(
        [
            working_set(int(0.5 * config.num_lines), 25_000, seed=1,
                        locality=0.3),
            scan_with_hot(config.ways, 10 * config.num_lines, 25_000,
                          hot_fraction=0.1, seed=2),
        ],
        seed=3,
    )


def run(config, policy, stream):
    cache = SetAssociativeCache(config, policy)
    for line in stream:
        cache.access(line * config.line_bytes)
    return cache.stats.miss_ratio


def main():
    register_policy("slru", SegmentedLRUPolicy)
    config = CacheConfig(size_bytes=32 * 1024, ways=8, line_bytes=64)
    stream = build_workload(config)

    print("1. SLRU vs the built-ins (miss ratio, lower is better):")
    for name in ("lru", "lfu", "fifo", "slru"):
        ratio = run(config, make_policy(name, config.num_sets, config.ways),
                    stream)
        print(f"   {name:6s} {ratio:.3f}")

    print("\n2. SLRU as an adaptive component (lru + slru):")
    adaptive = AdaptivePolicy(
        config.num_sets, config.ways,
        [make_policy("lru", config.num_sets, config.ways),
         make_policy("slru", config.num_sets, config.ways)],
    )
    ratio = run(config, adaptive, stream)
    shadows = dict(zip(("lru", "slru"), adaptive.component_misses()))
    print(f"   adaptive(lru+slru) miss ratio {ratio:.3f} "
          f"(shadow misses: {shadows})")

    print("\n3. SLRU set-dueled against LRU (DIP-style, via SbarPolicy):")
    duel = build_l2_policy(config, "sbar", ("lru", "slru"), num_leaders=8)
    ratio = run(config, duel, stream)
    winner = ("lru", "slru")[duel.selected_component()]
    print(f"   sbar(lru+slru) miss ratio {ratio:.3f}; "
          f"the duel settled on: {winner}")


if __name__ == "__main__":
    main()
