"""Turning address streams into full instruction traces.

A line stream only says *what* is referenced; the timing model also
needs to know how much independent work surrounds each reference
(instruction gaps), which references are stores, and what the branch
stream looks like. :class:`WorkloadBuilder` adds all three, drawing from
per-workload parameters so e.g. pointer codes get thin gaps (little ILP
to hide misses behind) and FP codes get wide ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from repro.workloads.trace import (
    KIND_BRANCH_NOT_TAKEN,
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    KIND_STORE,
    Trace,
)

DATA_SEGMENT_BASE = 0x1000_0000
CODE_SEGMENT_BASE = 0x0040_0000


@dataclass(frozen=True)
class BranchProfile:
    """Statistical shape of a workload's branch stream.

    Attributes:
        density: branches per memory reference (≈0.5-1.5 for typical
            codes once non-memory instructions are folded into gaps).
        loop_bias: probability that a loop-site branch is taken; loop
            branches are highly predictable (taken until the exit).
        random_fraction: fraction of branches drawn from a pool of
            data-dependent sites with ``random_bias`` taken probability —
            these are what the predictors actually mispredict.
    """

    #: Taken probability of the data-dependent sites.
    random_bias: ClassVar[float] = 0.5
    #: Number of distinct data-dependent branch PCs.
    sites: ClassVar[int] = 64

    density: float = 0.75
    loop_bias: float = 0.95
    random_fraction: float = 0.15

    def __post_init__(self):
        if self.density < 0:
            raise ValueError(f"density must be >= 0, got {self.density}")
        if not 0 <= self.loop_bias <= 1:
            raise ValueError("branch biases must be in [0, 1]")
        if not 0 <= self.random_fraction <= 1:
            raise ValueError(
                f"random_fraction must be in [0, 1], got {self.random_fraction}"
            )


class WorkloadBuilder:
    """Builds a :class:`Trace` from a line-number stream.

    Args:
        seed: RNG seed; the same seed and stream give identical traces.
        mean_gap: mean plain instructions between consecutive records
            (geometric distribution). Wide gaps = high ILP around
            references; thin gaps = dependent chains.
        write_fraction: fraction of memory references that are stores.
        branches: branch stream shape; None disables branch records.
        line_bytes: line size used to scale line numbers to addresses.
    """

    def __init__(
        self,
        seed: int = 0,
        mean_gap: float = 3.0,
        write_fraction: float = 0.3,
        branches: BranchProfile = BranchProfile(),
        line_bytes: int = 64,
    ):
        if mean_gap < 0:
            raise ValueError(f"mean_gap must be >= 0, got {mean_gap}")
        if not 0 <= write_fraction <= 1:
            raise ValueError(
                f"write_fraction must be in [0, 1], got {write_fraction}"
            )
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError(f"line_bytes must be a power of two, got {line_bytes}")
        self.seed = seed
        self.mean_gap = mean_gap
        self.write_fraction = write_fraction
        self.branches = branches
        self.line_bytes = line_bytes

    def build(self, name: str, line_stream: Sequence[int]) -> Trace:
        """Assemble the full trace around ``line_stream``."""
        n = len(line_stream)
        rng = np.random.default_rng(self.seed)

        if self.mean_gap > 0:
            p = 1.0 / (1.0 + self.mean_gap)
            gaps = rng.geometric(p, size=n) - 1
        else:
            gaps = np.zeros(n, dtype=np.int64)
        is_store = rng.random(n) < self.write_fraction

        profile = self.branches
        if profile is None or profile.density == 0:
            branch_here = np.zeros(n, dtype=bool)
        else:
            # Bernoulli thinning approximates `density` branches/reference.
            branch_here = rng.random(n) < min(profile.density, 1.0)
        is_random_site = rng.random(n) < (
            profile.random_fraction if profile else 0.0
        )
        site_pick = rng.integers(0, profile.sites if profile else 1, size=n)
        taken_roll = rng.random(n)

        # Each branch record sits just before the memory record it was
        # drawn with and takes half of that record's gap.
        mem_at = np.arange(n) + np.cumsum(branch_here)
        branch_gaps = np.where(branch_here, gaps // 2, 0)
        size = n + int(np.count_nonzero(branch_here))
        kinds = np.empty(size, dtype=np.int8)
        addresses = np.empty(size, dtype=np.int64)
        record_gaps = np.empty(size, dtype=np.int32)

        kinds[mem_at] = np.where(is_store, KIND_STORE, KIND_LOAD)
        addresses[mem_at] = (
            np.asarray(line_stream, dtype=np.int64) * self.line_bytes
            + DATA_SEGMENT_BASE
        )
        record_gaps[mem_at] = gaps - branch_gaps

        if branch_here.any():
            branch_at = mem_at[branch_here] - 1
            random_site = is_random_site[branch_here]
            site = site_pick[branch_here]
            roll = taken_roll[branch_here]
            taken = np.where(
                random_site, roll < profile.random_bias, roll < profile.loop_bias
            )
            kinds[branch_at] = np.where(
                taken, KIND_BRANCH_TAKEN, KIND_BRANCH_NOT_TAKEN
            )
            addresses[branch_at] = np.where(
                random_site,
                CODE_SEGMENT_BASE + 0x1000 + site * 4,
                CODE_SEGMENT_BASE + site % 8 * 4,
            )
            record_gaps[branch_at] = branch_gaps[branch_here]
        return Trace(name, kinds, addresses, record_gaps)
