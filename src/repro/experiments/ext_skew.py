"""Extension: skewed associativity is orthogonal to adaptive replacement.

Section 5 of the paper argues that advanced *indexing* schemes (Seznec
& Bodin's skewed associativity, Hallnor & Reinhardt's fully-associative
cache) attack a different miss category — conflicts — than adaptive
*replacement* does, and that the techniques are therefore orthogonal.
This experiment measures all three failure modes:

* a conflict-heavy workload (a large stride equal to the set count, so
  a conventional cache funnels everything into a few sets) — skewing
  should win, adaptivity should not help;
* a policy-sensitive workload (hot set + scan) — adaptivity should
  win, skewing should not help;
* fully-associative LRU (sets=1) as the conflict-free reference point.
"""

from __future__ import annotations

from typing import List

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.skewed import SkewedAssociativeCache
from repro.experiments.base import ExperimentResult, Setup, build_l2_policy
from repro.policies.lru import LRUPolicy
from repro.workloads.synth import scan_with_hot, strided_sweep
from repro.workloads.phases import interleave_streams


def _conflict_stream(config: CacheConfig, accesses: int) -> List[int]:
    """A working set striding by the set count: every block maps to the
    same set of a conventional cache (pure conflict misses), while the
    total footprint is a fraction of capacity."""
    hot_blocks = 4 * config.ways  # 4x over-subscribes one set
    return strided_sweep(
        hot_blocks * config.num_sets, config.num_sets, accesses
    )


def _policy_stream(config: CacheConfig, accesses: int, seed: int) -> List[int]:
    """Hot set + one-pass scan: the LFU-friendly media pattern."""
    return scan_with_hot(
        max(config.ways, int(0.4 * config.num_lines)),
        8 * config.num_lines,
        accesses,
        seed=seed,
    )


def _miss_ratio_conventional(config, stream, policy_kind) -> float:
    cache = SetAssociativeCache(
        config, build_l2_policy(config, policy_kind)
    )
    for line in stream:
        cache.access(line * config.line_bytes)
    return cache.stats.miss_ratio


def _miss_ratio_skewed(config, stream) -> float:
    cache = SkewedAssociativeCache(config)
    for line in stream:
        cache.access(line * config.line_bytes)
    return cache.stats.miss_ratio


def _miss_ratio_fully_associative(config, stream) -> float:
    fa_config = config.scaled(ways=config.num_lines)
    cache = SetAssociativeCache(
        fa_config, LRUPolicy(fa_config.num_sets, fa_config.ways)
    )
    for line in stream:
        cache.access(line * fa_config.line_bytes)
    return cache.stats.miss_ratio


def run(setup: Setup) -> ExperimentResult:
    """Miss ratios of indexing vs replacement techniques per miss class."""
    config = setup.l2
    accesses = setup.accesses

    streams = {
        "conflict (stride=sets)": _conflict_stream(config, accesses),
        "policy (hot+scan)": _policy_stream(config, accesses, seed=3),
        "mixed": interleave_streams(
            [
                _conflict_stream(config, accesses // 2),
                _policy_stream(config, accesses - accesses // 2, seed=4),
            ],
            seed=5,
        ),
    }

    result = ExperimentResult(
        experiment="ext-skew",
        description="Miss ratios: skewed indexing vs adaptive "
        "replacement per miss class (Section 5 orthogonality)",
        headers=["workload", "LRU", "Adaptive", "Skewed",
                 "Fully-assoc LRU"],
    )
    for label, stream in streams.items():
        result.add_row(
            label,
            _miss_ratio_conventional(config, stream, "lru"),
            _miss_ratio_conventional(config, stream, "adaptive"),
            _miss_ratio_skewed(config, stream),
            _miss_ratio_fully_associative(config, stream),
        )
    result.add_note(
        "Expected shape: on the conflict stream, skewing (and full "
        "associativity) win while adaptive replacement cannot help; on "
        "the policy stream, adaptive replacement wins while skewing "
        "cannot help — the techniques compose rather than compete, as "
        "the paper's related-work section argues."
    )
    return result
