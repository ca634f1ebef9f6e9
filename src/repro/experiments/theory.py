"""Appendix: the 2x worst-case miss bound, checked empirically.

The paper proves the counter-based adaptive policy never suffers more
than twice the misses of the better component, per set. This experiment
hammers the bound with the adversarial phase-alternating trace (built
to defeat any fixed component) and with random traces, and reports the
worst observed per-set ratio.
"""

from __future__ import annotations

import random

from repro.cache.config import CacheConfig
from repro.core.theory import adversarial_trace, check_miss_bound
from repro.experiments.base import ExperimentResult

#: The cache the bound is checked on: 8 KB, 8-way, 16 sets.
CONFIG = CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64)
#: Random traces of each family, and the length of every trace.
SEEDS = 5
TRACE_LENGTH = 20_000


def run() -> ExperimentResult:
    """Check the bound on adversarial and random block traces."""
    config, seeds, trace_length = CONFIG, SEEDS, TRACE_LENGTH

    result = ExperimentResult(
        experiment="theory",
        description="Empirical check of the Appendix's 2x miss bound "
        "(counter-based selector, full tags)",
        headers=["trace", "worst per-set ratio", "bound holds"],
    )

    trace = adversarial_trace(
        ways=config.ways,
        phase_length=trace_length // 8,
        phases=8,
        num_sets=config.num_sets,
    )
    report = check_miss_bound(trace, config)
    result.add_row("adversarial phase-alternating", report.worst_ratio(),
                   report.holds())

    for seed in range(seeds):
        rng = random.Random(seed)
        universe = 4 * config.num_lines
        blocks = [rng.randrange(universe) for _ in range(trace_length)]
        report = check_miss_bound(blocks, config)
        result.add_row(f"uniform random (seed {seed})", report.worst_ratio(),
                       report.holds())

    for seed in range(seeds):
        rng = random.Random(1000 + seed)
        blocks = []
        block = 0
        for _ in range(trace_length):
            if rng.random() < 0.1:
                block = rng.randrange(4 * config.num_lines)
            blocks.append(block)
            if rng.random() < 0.5:
                block = (block + 1) % (4 * config.num_lines)
        report = check_miss_bound(blocks, config)
        result.add_row(f"sequential bursts (seed {seed})",
                       report.worst_ratio(), report.holds())

    result.add_note(
        "Ratios are adaptive misses / (best component misses + 2*ways "
        "warm-up slack) per set; the Appendix guarantees <= 2."
    )
    return result
