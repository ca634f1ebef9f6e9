"""Section 3.2: SRAM storage requirements.

This experiment is exact arithmetic (no simulation): it regenerates the
paper's accounting of cache storage for the 512 KB 8-way baseline — the
544 KB conventional total, the 598 KB (+9.9%) full-tag adaptive cache,
the 566 KB (+4.0%) 8-bit partial-tag version, the 2.1% overhead at
128-byte lines, the 9/10-way alternatives (+12.5%/+25%), and the SBAR
overheads of Section 4.7 (0.16% and 0.09%).
"""

from __future__ import annotations

from repro.cache.config import CacheConfig
from repro.cache.overhead import StorageModel
from repro.experiments.base import ExperimentResult


#: The paper's baseline L2: 512 KB, 8-way.
SIZE_BYTES = 512 * 1024
WAYS = 8
#: SBAR leader sets (Section 4.7).
NUM_LEADERS = 16


def run() -> ExperimentResult:
    """Regenerate the Section 3.2 storage table."""
    size_bytes, ways, num_leaders = SIZE_BYTES, WAYS, NUM_LEADERS
    config = CacheConfig(size_bytes=size_bytes, ways=ways, line_bytes=64)
    model = StorageModel(config)
    config128 = CacheConfig(size_bytes=size_bytes, ways=ways, line_bytes=128)
    model128 = StorageModel(config128)

    base = model.conventional_total_kb()
    result = ExperimentResult(
        experiment="storage",
        description=f"SRAM storage accounting for a {size_bytes // 1024}KB "
        f"{ways}-way cache (Section 3.2)",
        headers=["configuration", "total KB", "overhead %"],
    )
    result.add_row("conventional (data+tags+state)", base, 0.0)
    result.add_row(
        "adaptive, full tags",
        model.adaptive_total_kb(),
        model.adaptive_overhead_percent(),
    )
    result.add_row(
        "adaptive, 8-bit partial tags",
        model.adaptive_total_kb(8),
        model.adaptive_overhead_percent(8),
    )
    result.add_row(
        "adaptive, 8-bit tags, 128B lines",
        model128.adaptive_total_kb(8),
        model128.adaptive_overhead_percent(8),
    )
    nine = StorageModel(config.scaled(
        size_bytes=size_bytes // ways * (ways + 1), ways=ways + 1
    ))
    ten = StorageModel(config.scaled(
        size_bytes=size_bytes // ways * (ways + 2), ways=ways + 2
    ))
    result.add_row(
        f"conventional {ways + 1}-way "
        f"({size_bytes // ways * (ways + 1) // 1024}KB data)",
        nine.conventional_total_kb(),
        100.0 * (nine.conventional_total_kb() - base) / base,
    )
    result.add_row(
        f"conventional {ways + 2}-way "
        f"({size_bytes // ways * (ways + 2) // 1024}KB data)",
        ten.conventional_total_kb(),
        100.0 * (ten.conventional_total_kb() - base) / base,
    )
    result.add_row(
        f"SBAR, {num_leaders} leaders, full tags",
        model.sbar_total_kb(num_leaders),
        model.sbar_overhead_percent(num_leaders),
    )
    result.add_row(
        f"SBAR, {num_leaders} leaders, 8-bit tags",
        model.sbar_total_kb(num_leaders, 8),
        model.sbar_overhead_percent(num_leaders, 8),
    )
    result.add_note(
        "Paper (512KB, 64B lines): 544KB conventional; 598KB (+9.9%) "
        "full-tag adaptive; 566KB (+4.0%) 8-bit partial; 2.1% at 128B "
        "lines; 612KB/680KB (+12.5%/+25%) for 9/10-way; SBAR 0.16%/0.09%."
    )
    return result
