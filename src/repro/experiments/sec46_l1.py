"""Section 4.6: adaptivity at other cache levels (L1I, L1D).

Paper result: an adaptive 16 KB instruction cache cuts I-MPKI by about
12%, and the adaptive L1 data cache cuts D-MPKI by less than 1% — but
neither moves overall performance (<0.1%), because the out-of-order
core tolerates occasional I-misses and the L1D is dominated by capacity
misses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.metrics import arithmetic_mean, percent_reduction
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.multi import make_adaptive
from repro.experiments.base import ExperimentResult, Setup, WorkloadCache
from repro.policies.lru import LRUPolicy
from repro.workloads.builder import CODE_SEGMENT_BASE
from repro.workloads.suite import workload_seed
from repro.workloads.synth import linear_loop, working_set
from repro.workloads.phases import interleave_streams


def instruction_stream(
    name: str, config: CacheConfig, accesses: int
) -> List[int]:
    """Synthetic instruction-fetch line stream for one workload.

    Code behaviour is loops over straight-line regions plus calls into a
    set of hot functions; the loop footprint varies per workload between
    0.6x and 1.6x of the instruction cache, so some workloads thrash an
    LRU-managed L1I (where adaptivity helps) and others fit.
    """
    seed = workload_seed(name, offset=7)
    scale = 0.6 + (seed % 11) / 10.0  # 0.6 .. 1.6
    loop_lines = max(config.ways + 1, int(scale * config.num_lines))
    hot_functions = max(config.ways, config.num_lines // 4)
    return interleave_streams(
        [
            linear_loop(loop_lines, accesses * 2 // 3),
            working_set(hot_functions, accesses - accesses * 2 // 3,
                        seed=seed, locality=0.4),
        ],
        weights=[0.7, 0.3],
        seed=seed + 1,
    )


def _mpki_pair(
    addresses: Sequence[int],
    writes: Sequence[bool],
    config: CacheConfig,
    instructions: int,
) -> tuple:
    """(LRU MPKI, adaptive MPKI) of one address stream on one geometry."""
    lru_cache = SetAssociativeCache(
        config, LRUPolicy(config.num_sets, config.ways)
    )
    adaptive_cache = SetAssociativeCache(
        config, make_adaptive(config.num_sets, config.ways, ("lru", "lfu"))
    )
    for address, is_write in zip(addresses, writes):
        lru_cache.access(address, is_write)
        adaptive_cache.access(address, is_write)
    return (
        lru_cache.stats.mpki(instructions),
        adaptive_cache.stats.mpki(instructions),
    )


def run(setup: Setup, workloads: Optional[Sequence[str]]) -> ExperimentResult:
    """Reproduce the L1 adaptivity study of Section 4.6."""
    cache_ws = WorkloadCache(setup)
    workloads = list(workloads or setup.workloads())
    l1 = setup.processor.l1d

    inst_lru, inst_adp = [], []
    data_lru, data_adp = [], []
    for name in workloads:
        trace = cache_ws.trace(name)
        instructions = trace.instruction_count

        stream = instruction_stream(name, l1, setup.accesses // 2)
        fetch_addresses = [
            CODE_SEGMENT_BASE + line * l1.line_bytes for line in stream
        ]
        ilru, iadp = _mpki_pair(
            fetch_addresses, [False] * len(fetch_addresses), l1, instructions
        )
        inst_lru.append(ilru)
        inst_adp.append(iadp)

        data_addresses, data_writes = trace.memory_stream()
        dlru, dadp = _mpki_pair(data_addresses, data_writes, l1, instructions)
        data_lru.append(dlru)
        data_adp.append(dadp)

    result = ExperimentResult(
        experiment="sec46",
        description="Adaptive replacement at the L1 level "
        "(average MPKI, lower is better)",
        headers=["cache", "LRU avg MPKI", "Adaptive avg MPKI",
                 "reduction %"],
    )
    result.add_row(
        "L1 instruction",
        arithmetic_mean(inst_lru),
        arithmetic_mean(inst_adp),
        percent_reduction(arithmetic_mean(inst_lru), arithmetic_mean(inst_adp)),
    )
    result.add_row(
        "L1 data",
        arithmetic_mean(data_lru),
        arithmetic_mean(data_adp),
        percent_reduction(arithmetic_mean(data_lru), arithmetic_mean(data_adp)),
    )
    result.add_note(
        "Paper: ~12% I-MPKI reduction, <1% D-MPKI reduction, neither "
        "worth meaningful performance (<0.1%) on the OoO core."
    )
    return result
