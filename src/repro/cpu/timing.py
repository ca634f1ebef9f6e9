"""The two-phase event-driven timing model.

Phase 1 (:func:`compile_workload`) is L2-policy independent: it walks
the full trace once, one bounded chunk at a time, through the L1 data
cache, the branch predictors and the BTB, and emits the L2-visible
stream (demand misses, store fills, L1 writebacks) as three compact
columns: each event's kind, its address and the instruction distance
since the previous L2 event.

Phase 2 (:func:`simulate`) replays those columns against one L2 cache
(a cache the columnar kernel supports advances through the whole stream
up front and the replay reads its hit stream) and models the mechanisms
that translate L2 misses into cycles:

* issue-limited execution at ``base_ipc``;
* ROB-limited run-ahead — the core keeps executing up to
  ``rob_entries`` instructions past the oldest outstanding load miss,
  so clustered misses overlap (MLP) and isolated ones stall;
* an MSHR cap on the number of overlapped misses;
* a finite store buffer that back-pressures the core when write
  traffic (store fills and writebacks) outpaces the L2/memory;
* a lump-sum charge for branch mispredictions and BTB misses
  (policy-independent, computed in phase 1).

Absolute CPI is approximate; what the model preserves is how CPI
*responds* to L2 miss-count changes, which is what the paper's Figures
4, 6, 9 and 10 measure.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.cpu.branch import BranchTargetBuffer, MetaPredictor
from repro.cpu.config import ProcessorConfig
from repro.cpu.store_buffer import StoreBuffer
from repro.perf import kernel
from repro.policies.lru import LRUPolicy
from repro.workloads.trace import (
    KIND_BRANCH_TAKEN,
    KIND_STORE,
    Trace,
)

# Kinds of L2-visible events.
L2_LOAD = 0
L2_STORE = 1
L2_WRITEBACK = 2

@dataclass
class CompiledWorkload:
    """Policy-independent digest of one workload.

    Attributes:
        name: workload name.
        instructions: total instruction count of the trace.
        l2_gaps / l2_kinds / l2_addresses: the L2 event columns, one
            entry per event in order (typed arrays ``'i'``, ``'b'`` and
            ``'q'``, 13 bytes per event); a gap counts the instructions
            since the previous L2 event (the event's own instruction
            excluded; writebacks are not instructions).
        tail_instructions: instructions after the last L2 event.
        branch_mispredicts / btb_misses / branches: predictor outcomes.
        l1_hits / l1_misses: L1D filter statistics.
    """

    name: str
    instructions: int
    l2_gaps: array = field(default_factory=lambda: array("i"))
    l2_kinds: array = field(default_factory=lambda: array("b"))
    l2_addresses: array = field(default_factory=lambda: array("q"))
    tail_instructions: int = 0
    branch_mispredicts: int = 0
    btb_misses: int = 0
    branches: int = 0
    l1_hits: int = 0
    l1_misses: int = 0


@dataclass(frozen=True)
class TimingResult:
    """Cycles and CPI of one (workload, L2 configuration) pair.

    ``breakdown`` maps component names (``base``, ``load_stall``,
    ``store_stall``, ``branch``) to cycle counts.
    """

    name: str
    instructions: int
    cycles: float
    l2_accesses: int
    l2_misses: int
    breakdown: Dict[str, float]

    @property
    def cpi(self) -> float:
        """Cycles per instruction (the paper's Figure 4 metric)."""
        return self.cycles / self.instructions

    @property
    def mpki(self) -> float:
        """L2 misses per thousand instructions (Figure 3 metric)."""
        return 1000.0 * self.l2_misses / self.instructions


def compile_workload(trace: Trace, config: ProcessorConfig) -> CompiledWorkload:
    """Filter ``trace`` through the L1D, predictors and BTB once."""
    l1_config = config.l1d
    l1 = SetAssociativeCache(
        l1_config, LRUPolicy(l1_config.num_sets, l1_config.ways)
    )
    predictor = MetaPredictor(config.predictor_entries)
    btb = BranchTargetBuffer(config.btb_entries, config.btb_ways)

    compiled = CompiledWorkload(name=trace.name, instructions=trace.instruction_count)
    # The compile pass walks every record of the full trace, one bounded
    # chunk at a time; bind the per-record calls and counters to locals
    # (the counters are written back once at the end).
    gaps_append = compiled.l2_gaps.append
    kinds_append = compiled.l2_kinds.append
    addresses_append = compiled.l2_addresses.append
    l1_access = l1.access
    predictor_update = predictor.update
    btb_lookup = btb.lookup_update
    rebuild_address = l1_config.rebuild_address
    branch_mispredicts = 0
    btb_misses = 0
    branches = 0
    l1_hits = 0
    l1_misses = 0
    pending_insts = 0
    for chunk in trace.chunks():
        for kind, address, gap in chunk:
            pending_insts += gap
            if kind >= KIND_BRANCH_TAKEN:
                taken = kind == KIND_BRANCH_TAKEN
                if not predictor_update(address, taken):
                    branch_mispredicts += 1
                if taken and not btb_lookup(address):
                    btb_misses += 1
                branches += 1
                pending_insts += 1
                continue
            result = l1_access(address, is_write=(kind == KIND_STORE))
            if result.hit:
                l1_hits += 1
                pending_insts += 1
                continue
            l1_misses += 1
            gaps_append(pending_insts)
            kinds_append(L2_STORE if kind == KIND_STORE else L2_LOAD)
            addresses_append(address)
            pending_insts = 0
            if result.writeback:
                gaps_append(0)
                kinds_append(L2_WRITEBACK)
                addresses_append(
                    rebuild_address(result.evicted_tag, result.set_index)
                )
    compiled.branch_mispredicts = branch_mispredicts
    compiled.btb_misses = btb_misses
    compiled.branches = branches
    compiled.l1_hits = l1_hits
    compiled.l1_misses = l1_misses
    compiled.tail_instructions = pending_insts
    return compiled


def simulate(
    compiled: CompiledWorkload,
    l2: SetAssociativeCache,
    config: ProcessorConfig,
) -> TimingResult:
    """Replay the compiled L2 stream against ``l2`` and count cycles."""
    ipc = config.base_ipc
    rob = config.rob_entries
    l2_hit_latency = l2.config.hit_latency
    miss_latency = l2_hit_latency + config.miss_penalty
    hit_stall = l2_hit_latency * config.l2_hit_stall_factor
    offset_bits = l2.config.offset_bits
    # Decompose L2 addresses here and call the pre-decomposed entry
    # point: the replay loop is the experiments' inner loop.
    l2_offset_bits, l2_index_mask, l2_tag_shift = l2.config.decomposition()
    l2_access = l2.access_decomposed

    # The cycle accounting below only consumes the hit/miss outcome of
    # each L2 reference, so when the columnar kernel supports this cache
    # it advances the whole batch up front and the loop reads the
    # precomputed hit stream instead of calling into the cache.
    kinds = compiled.l2_kinds
    addresses = compiled.l2_addresses
    hit_stream = None
    if kernel.kernel_name(l2, len(kinds)) == "columnar":
        hit_stream = kernel.columnar_hit_stream(
            l2,
            np.frombuffer(addresses, dtype=np.int64),
            np.frombuffer(kinds, dtype=np.int8) != L2_LOAD,
        )

    now = 0.0
    run_ahead = 0
    pending = deque()  # completion times of outstanding load misses
    store_buffer = StoreBuffer(config.store_buffer_entries)
    load_stall = 0.0
    accesses = 0
    misses = 0

    def retire_oldest() -> None:
        nonlocal now, load_stall
        completion = pending.popleft()
        if completion > now:
            load_stall += completion - now
            now = completion

    def advance(instructions: int) -> None:
        nonlocal now, run_ahead
        remaining = instructions
        while pending and run_ahead + remaining >= rob:
            executable = max(0, rob - run_ahead)
            now += executable / ipc
            remaining -= executable
            retire_oldest()
            run_ahead = 0
        now += remaining / ipc
        if pending:
            run_ahead += remaining

    for index, (gap, kind, address) in enumerate(
        zip(compiled.l2_gaps, kinds, addresses)
    ):
        if kind == L2_WRITEBACK:
            advance(gap)
        else:
            advance(gap + 1)
        if hit_stream is None:
            hit = l2_access(
                (address >> l2_offset_bits) & l2_index_mask,
                address >> l2_tag_shift,
                kind != L2_LOAD,
            ).hit
        else:
            hit = hit_stream[index]
        accesses += 1
        latency = l2_hit_latency if hit else miss_latency
        if not hit:
            misses += 1
        if kind == L2_LOAD:
            if hit:
                load_stall += hit_stall
                now += hit_stall
            else:
                while pending and pending[0] <= now:
                    pending.popleft()
                if len(pending) >= config.mshr_entries:
                    retire_oldest()
                if not pending:
                    run_ahead = 0
                pending.append(now + latency)
        else:
            now = store_buffer.push(now, latency, line=address >> offset_bits)

    advance(compiled.tail_instructions)
    if pending:
        # All remaining misses overlap; the run ends when the last one
        # (the largest completion time) returns.
        last = max(pending)
        if last > now:
            load_stall += last - now
            now = last

    branch_cycles = (
        compiled.branch_mispredicts * config.mispredict_penalty
        + compiled.btb_misses * config.btb_miss_penalty
    )
    cycles = now + branch_cycles
    return TimingResult(
        name=compiled.name,
        instructions=compiled.instructions,
        cycles=cycles,
        l2_accesses=accesses,
        l2_misses=misses,
        breakdown={
            "base": compiled.instructions / ipc,
            "load_stall": load_stall,
            "store_stall": store_buffer.stall_cycles,
            "branch": branch_cycles,
        },
    )
