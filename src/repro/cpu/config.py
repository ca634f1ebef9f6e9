"""The simulated processor configuration (Table 1)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.config import CacheConfig


def _table1_l1() -> CacheConfig:
    return CacheConfig(size_bytes=16 * 1024, ways=4, line_bytes=64, hit_latency=2)


def _table1_l2() -> CacheConfig:
    return CacheConfig(size_bytes=512 * 1024, ways=8, line_bytes=64, hit_latency=15)


@dataclass(frozen=True)
class ProcessorConfig:
    """Parameters of the modeled out-of-order processor.

    Defaults follow Table 1 of the paper: 8-wide decode/issue, 32 RS and
    64 ROB entries, 16 KB 4-way 2-cycle L1s, a 512 KB 8-way 15-cycle
    unified L2 with a 4-entry store buffer, 120-cycle memory behind an
    8-byte split-transaction bus at a 8:1 frequency ratio, and a
    16 KB gshare / 16 KB bimodal / 16 KB meta branch predictor with a
    4K-entry 4-way BTB.

    Attributes:
        base_ipc: sustained non-memory IPC of the core. Table 1's 8-wide
            machine with 4 ALUs of each class sustains roughly 3 on
            typical code; this is where the abstracted pipeline's ILP
            lives.
        l2_hit_stall_factor: fraction of the L2 hit latency the
            out-of-order engine fails to hide on an L1 miss / L2 hit.
        mshr_entries: maximum overlapped outstanding L2 misses (MLP cap).
    """

    issue_width: int = 8
    rs_entries: int = 32
    rob_entries: int = 64
    base_ipc: float = 3.0
    l1d: CacheConfig = field(default_factory=_table1_l1)
    l1i: CacheConfig = field(default_factory=_table1_l1)
    l2: CacheConfig = field(default_factory=_table1_l2)
    store_buffer_entries: int = 4
    memory_latency: int = 120
    bus_bytes: int = 8
    bus_ratio: int = 8
    mispredict_penalty: int = 10
    btb_miss_penalty: int = 2
    mshr_entries: int = 8
    l2_hit_stall_factor: float = 0.3
    # Branch predictor sizing (16KB gshare/16KB bimodal/16KB meta =
    # 64K 2-bit counters each; 4K-entry 4-way BTB).
    predictor_entries: int = 64 * 1024
    btb_entries: int = 4096
    btb_ways: int = 4

    def __post_init__(self):
        if self.issue_width <= 0 or self.rob_entries <= 0:
            raise ValueError("issue_width and rob_entries must be positive")
        if self.base_ipc <= 0:
            raise ValueError(f"base_ipc must be positive, got {self.base_ipc}")
        if self.store_buffer_entries <= 0:
            raise ValueError("store_buffer_entries must be positive")
        if self.memory_latency <= 0 or self.bus_bytes <= 0 or self.bus_ratio <= 0:
            raise ValueError("memory and bus parameters must be positive")
        if self.mshr_entries <= 0:
            raise ValueError("mshr_entries must be positive")
        if not 0.0 <= self.l2_hit_stall_factor <= 1.0:
            raise ValueError("l2_hit_stall_factor must be in [0, 1]")
        # compile_workload sends one L2 reference per L1 miss: with a
        # larger L1 line, part of every fetched line never reaches the L2.
        for name, l1 in (("l1d", self.l1d), ("l1i", self.l1i)):
            if l1.line_bytes != self.l2.line_bytes:
                raise ValueError(
                    f"{name} block size {l1.line_bytes} does not match "
                    f"L2 block size {self.l2.line_bytes}; writeback "
                    "addresses would alias the wrong L2 lines"
                )

    @property
    def bus_transfer_cycles(self) -> int:
        """CPU cycles to move one L2 line across the bus."""
        transfers = -(-self.l2.line_bytes // self.bus_bytes)
        return transfers * self.bus_ratio

    @property
    def miss_penalty(self) -> int:
        """Total CPU cycles for an L2 miss serviced by memory."""
        return self.memory_latency + self.bus_transfer_cycles

    def scaled(self, **overrides) -> "ProcessorConfig":
        """Copy with some fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)
