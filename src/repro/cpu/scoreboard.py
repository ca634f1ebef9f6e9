"""A per-instruction scoreboard reference model.

The main timing model (:mod:`repro.cpu.timing`) accounts cycles in
aggregate: compiled gaps, a run-ahead budget, lump-sum branch penalties.
This module is a second, structurally different implementation — every
instruction is dispatched, executed and retired individually against a
scoreboard of machine resources:

* fetch/dispatch bandwidth (``issue_width`` per cycle), stalled while a
  mispredicted branch resolves;
* a ROB of ``rob_entries``: instruction i cannot dispatch before
  instruction ``i - rob_entries`` retires;
* two memory ports rate-limiting loads/stores;
* MSHRs capping concurrent L2 misses;
* in-order retirement at ``issue_width`` per cycle;
* stores retiring through the shared :class:`StoreBuffer`.

Because the two models share only the configuration (not the
accounting structure), agreement between them on *policy comparisons*
is meaningful evidence that conclusions do not hinge on either model's
simplifications — see ``repro-experiments ext-validate``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cache.cache import SetAssociativeCache
from repro.cpu.branch import BranchTargetBuffer, MetaPredictor
from repro.cpu.config import ProcessorConfig
from repro.cpu.store_buffer import StoreBuffer
from repro.policies.lru import LRUPolicy
from repro.workloads.trace import (
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    Trace,
)


@dataclass(frozen=True)
class ScoreboardResult:
    """Cycles and CPI from the scoreboard reference model."""

    name: str
    instructions: int
    cycles: float
    l2_accesses: int
    l2_misses: int

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions

    @property
    def mpki(self) -> float:
        """L2 misses per thousand instructions."""
        return 1000.0 * self.l2_misses / self.instructions


class _Scoreboard:
    """Mutable machine state for one simulation run."""

    def __init__(self, config: ProcessorConfig, l2: SetAssociativeCache):
        self.config = config
        self.l2 = l2
        l1_config = config.l1d
        self.l1 = SetAssociativeCache(
            l1_config, LRUPolicy(l1_config.num_sets, l1_config.ways)
        )
        self.predictor = MetaPredictor(config.predictor_entries)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_ways)
        self.store_buffer = StoreBuffer(config.store_buffer_entries)
        self.dispatch_slot = 1.0 / config.issue_width
        self.fetch_ready = 0.0
        self.last_dispatch = 0.0
        # Retirement times of in-flight instructions (ROB occupancy).
        self.rob = deque()
        self.last_retire = 0.0
        # Memory ports: next-free times (pipelined: busy 1 issue slot).
        self.ports = [0.0, 0.0]
        # Completion times of outstanding L2 misses (MSHR occupancy).
        self.mshrs = deque()
        self.l2_accesses = 0
        self.l2_misses = 0

    def _memory_latency(self, address: int, is_write: bool) -> float:
        """Walk L1/L2 and return the load-to-use latency."""
        config = self.config
        l1_result = self.l1.access(address, is_write)
        if l1_result.hit:
            return config.l1d.hit_latency
        if l1_result.writeback:
            evicted = self.config.l1d.rebuild_address(
                l1_result.evicted_tag, l1_result.set_index
            )
            self.l2_accesses += 1
            if not self.l2.access(evicted, is_write=True).hit:
                self.l2_misses += 1
        self.l2_accesses += 1
        l2_result = self.l2.access(address, is_write)
        if l2_result.hit:
            return config.l1d.hit_latency + config.l2.hit_latency
        self.l2_misses += 1
        return (
            config.l1d.hit_latency
            + config.l2.hit_latency
            + config.miss_penalty
        )

    def dispatch(self, now_floor: float) -> float:
        """Claim the next dispatch slot; returns the dispatch time."""
        dispatch = max(
            self.last_dispatch + self.dispatch_slot,
            self.fetch_ready,
            now_floor,
        )
        if len(self.rob) >= self.config.rob_entries:
            dispatch = max(dispatch, self.rob.popleft())
        self.last_dispatch = dispatch
        return dispatch

    def retire(self, completion: float) -> float:
        """In-order retirement; returns the retire time."""
        retire = max(
            completion, self.last_retire + self.dispatch_slot
        )
        self.last_retire = retire
        self.rob.append(retire)
        return retire

    def memory_port(self, dispatch: float) -> float:
        """Claim a memory port; returns when the access may start."""
        port = min(range(len(self.ports)), key=self.ports.__getitem__)
        start = max(dispatch, self.ports[port])
        self.ports[port] = start + self.dispatch_slot
        return start

    def mshr_admit(self, start: float) -> float:
        """Cap concurrent misses; returns the admitted start time."""
        while self.mshrs and self.mshrs[0] <= start:
            self.mshrs.popleft()
        if len(self.mshrs) >= self.config.mshr_entries:
            start = max(start, self.mshrs.popleft())
        return start


def scoreboard_simulate(
    trace: Trace, l2: SetAssociativeCache, config: ProcessorConfig
) -> ScoreboardResult:
    """Run ``trace`` through the scoreboard reference model."""
    board = _Scoreboard(config, l2)

    for kind, address, gap in trace:
        # The plain instructions preceding this record: single-cycle
        # ALU ops, constrained only by dispatch bandwidth and the ROB.
        for _ in range(gap):
            dispatch = board.dispatch(0.0)
            board.retire(dispatch + 1.0)

        dispatch = board.dispatch(0.0)
        if kind >= KIND_BRANCH_TAKEN:
            taken = kind == KIND_BRANCH_TAKEN
            resolve = dispatch + 1.0
            correct = board.predictor.update(address, taken)
            if not correct:
                board.fetch_ready = max(
                    board.fetch_ready,
                    resolve + config.mispredict_penalty,
                )
            elif taken and not board.btb.lookup_update(address):
                board.fetch_ready = max(
                    board.fetch_ready,
                    dispatch + config.btb_miss_penalty,
                )
            board.retire(resolve)
        elif kind == KIND_LOAD:
            start = board.memory_port(dispatch)
            latency = board._memory_latency(address, is_write=False)
            if latency > config.l1d.hit_latency + config.l2.hit_latency:
                start = board.mshr_admit(start)
                board.mshrs.append(start + latency)
            board.retire(start + latency)
        else:  # store: completes into the store buffer at retire
            start = board.memory_port(dispatch)
            latency = board._memory_latency(address, is_write=True)
            drain = latency - config.l1d.hit_latency
            retire = board.retire(start + 1.0)
            resumed = board.store_buffer.push(
                retire, max(0.0, drain),
                line=address >> 6,
            )
            if resumed > retire:
                # Store-buffer back-pressure stalls retirement.
                board.last_retire = resumed

    cycles = max(board.last_retire, board.last_dispatch)
    return ScoreboardResult(
        name=trace.name,
        instructions=trace.instruction_count,
        cycles=cycles,
        l2_accesses=board.l2_accesses,
        l2_misses=board.l2_misses,
    )
