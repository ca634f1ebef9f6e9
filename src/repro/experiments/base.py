"""Shared experiment infrastructure: setups, policy specs, caching.

The paper's evaluation runs 100M-instruction SimPoint samples against a
512 KB L2. A pure-Python reproduction of that exact scale takes hours,
so experiments default to a *scaled* configuration — a 64 KB L2 with
footprints scaled accordingly (workload recipes size themselves
relative to the cache) and ~60K memory references per workload. The
``paper`` setup restores Table 1's geometry for users with patience;
the ``mini`` setup further shrinks things for the benchmark harness.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.tables import render_table
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.multi import five_policy_adaptive, make_adaptive
from repro.core.partial import PartialTagScheme
from repro.core.sbar import SbarPolicy
from repro.cpu.config import ProcessorConfig
from repro.cpu.timing import CompiledWorkload, TimingResult, compile_workload, simulate
from repro.experiments import checkpoint as checkpoint_mod
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import make_policy
from repro.workloads.io import TraceFormatError, load_trace, save_trace
from repro.workloads.suite import build_workload, workload_names
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class Setup:
    """One experiment scale: cache geometry, processor, trace length."""

    name: str
    l2: CacheConfig
    processor: ProcessorConfig
    accesses: int

    def workloads(self, primary_only: bool = True) -> List[str]:
        """Suite workload names for this setup."""
        return workload_names(primary_only)


def make_setup(scale: str = "scaled", accesses: Optional[int] = None) -> Setup:
    """Build a named setup: ``mini``, ``scaled`` (default) or ``paper``."""
    if scale == "paper":
        l2 = CacheConfig(size_bytes=512 * 1024, ways=8, line_bytes=64,
                         hit_latency=15)
        l1 = CacheConfig(size_bytes=16 * 1024, ways=4, line_bytes=64,
                         hit_latency=2)
        default_accesses = 1_000_000
    elif scale == "scaled":
        l2 = CacheConfig(size_bytes=64 * 1024, ways=8, line_bytes=64,
                         hit_latency=15)
        l1 = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64,
                         hit_latency=2)
        default_accesses = 60_000
    elif scale == "mini":
        l2 = CacheConfig(size_bytes=16 * 1024, ways=8, line_bytes=64,
                         hit_latency=15)
        l1 = CacheConfig(size_bytes=2 * 1024, ways=4, line_bytes=64,
                         hit_latency=2)
        default_accesses = 12_000
    else:
        raise ValueError(f"unknown scale {scale!r}; use mini, scaled or paper")
    processor = ProcessorConfig(l1d=l1, l1i=l1, l2=l2)
    return Setup(
        name=scale, l2=l2, processor=processor,
        accesses=accesses or default_accesses,
    )


def build_l2_policy(
    config: CacheConfig,
    kind: str,
    components: Sequence[str] = ("lru", "lfu"),
    partial_bits: Optional[int] = None,
    num_leaders: int = 16,
    seed: int = 0,
) -> ReplacementPolicy:
    """Construct an L2 policy from a short spec.

    Args:
        kind: a registry policy name (``"lru"``, ``"lfu"``, ...),
            ``"adaptive"``, ``"adaptive5"`` or ``"sbar"``.
        components: component names for the adaptive kinds.
        partial_bits: partial tag width for the shadow arrays
            (None = full tags).
        num_leaders: leader set count for SBAR.
    """
    transform = PartialTagScheme(partial_bits) if partial_bits else None
    if kind == "adaptive":
        kwargs = {"tag_transform": transform} if transform else {}
        return make_adaptive(
            config.num_sets, config.ways, tuple(components), seed=seed, **kwargs
        )
    if kind == "adaptive5":
        kwargs = {"tag_transform": transform} if transform else {}
        return five_policy_adaptive(config.num_sets, config.ways,
                                    seed=seed, **kwargs)
    if kind == "sbar":
        if len(components) != 2:
            raise ValueError("sbar adapts over exactly two components")
        resident = [
            make_policy(name, config.num_sets, config.ways)
            for name in components
        ]
        leaders = min(num_leaders, config.num_sets)
        shadow = [make_policy(name, leaders, config.ways) for name in components]
        kwargs = {"tag_transform": transform} if transform else {}
        return SbarPolicy(
            config.num_sets, config.ways, resident, shadow,
            num_leaders=leaders, **kwargs,
        )
    return make_policy(kind, config.num_sets, config.ways)


# Default on-disk trace cache directory for WorkloadCache instances
# created without an explicit trace_dir (set by the CLI's --trace-cache
# flag so experiments stay oblivious to it). None disables disk caching.
# The REPRO_TRACE_CACHE environment variable seeds the default so CI
# jobs can share one actions/cache directory across every invocation
# without threading the flag through each command.
_DEFAULT_TRACE_DIR: Optional[str] = os.environ.get("REPRO_TRACE_CACHE") or None


def set_default_trace_dir(path: Optional[Union[str, os.PathLike]]) -> None:
    """Set (or clear, with None) the process-wide trace cache directory."""
    global _DEFAULT_TRACE_DIR
    _DEFAULT_TRACE_DIR = os.fspath(path) if path is not None else None


class WorkloadCache:
    """Caches built traces and compiled workloads per setup.

    Compiling a workload (L1 filter + predictors) is the expensive,
    L2-policy-independent phase; experiments that sweep policies or tag
    widths share one compile per workload through this cache.

    With a ``trace_dir`` (explicit, or process-wide via
    :func:`set_default_trace_dir`), built traces are also persisted as
    ``.npz`` files and reloaded on later runs. A cached file that turns
    out truncated or corrupt (:class:`~repro.workloads.io.TraceFormatError`)
    is regenerated and rewritten transparently instead of crashing the
    sweep; regenerations are recorded in ``trace_recoveries``.
    """

    def __init__(
        self, setup: Setup, trace_dir: Optional[Union[str, os.PathLike]] = None
    ):
        self.setup = setup
        self.trace_dir = (
            os.fspath(trace_dir) if trace_dir is not None else _DEFAULT_TRACE_DIR
        )
        self.trace_recoveries: List[str] = []
        self._traces: Dict[str, Trace] = {}
        self._compiled: Dict[str, CompiledWorkload] = {}

    def trace_path(self, name: str) -> Optional[str]:
        """Disk location of the workload's cached trace, or None."""
        if self.trace_dir is None:
            return None
        filename = f"{name}-{self.setup.name}-{self.setup.accesses}.npz"
        return os.path.join(self.trace_dir, filename)

    def trace(self, name: str) -> Trace:
        """The workload's trace, built (or loaded from disk) on first use."""
        if name not in self._traces:
            self._traces[name] = self._load_or_build(name)
        return self._traces[name]

    def _load_or_build(self, name: str) -> Trace:
        path = self.trace_path(name)
        if path is not None and os.path.exists(path):
            try:
                return load_trace(path)
            except TraceFormatError as exc:
                # Damaged cache entry: report, regenerate, overwrite.
                self.trace_recoveries.append(f"{name}: {exc}")
                print(
                    f"[trace-cache] regenerating {name}: {exc}",
                    file=sys.stderr,
                )
        trace = build_workload(name, self.setup.l2, accesses=self.setup.accesses)
        if path is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            save_trace(trace, path)
        return trace

    def compiled(self, name: str) -> CompiledWorkload:
        """The workload's compiled (L1-filtered) form, built on first use."""
        if name not in self._compiled:
            self._compiled[name] = compile_workload(
                self.trace(name), self.setup.processor
            )
        return self._compiled[name]

    def simulate_policy(
        self,
        name: str,
        policy_kind: str,
        processor: Optional[ProcessorConfig] = None,
        l2_config: Optional[CacheConfig] = None,
        **policy_kwargs,
    ) -> TimingResult:
        """Compile-once, simulate one policy spec on one workload."""
        processor = processor or self.setup.processor
        l2_config = l2_config or self.setup.l2
        policy = build_l2_policy(l2_config, policy_kind, **policy_kwargs)
        cache = SetAssociativeCache(l2_config, policy)
        return simulate(self.compiled(name), cache, processor)


def run_policy_sweep(
    cache: WorkloadCache,
    workloads: Sequence[str],
    policy_specs: Dict[str, dict],
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, TimingResult]]:
    """Simulate every (workload, policy spec) pair.

    ``policy_specs`` maps a display label to ``simulate_policy`` kwargs,
    e.g. ``{"Adaptive": {"policy_kind": "adaptive"}, "LRU":
    {"policy_kind": "lru"}}``. Returns ``{workload: {label: result}}``.

    ``workers`` above 1 (explicitly, or process-wide via
    :func:`repro.perf.parallel.set_default_workers` — the CLI's
    ``--workers`` flag) fans the cells out over worker processes; every
    cell is a deterministic function of its coordinates, so the merged
    results are byte-identical to the serial loop's.

    When a sweep checkpoint is active (see
    :func:`repro.experiments.checkpoint.active_checkpoint`), each
    completed (workload, label) cell is persisted as it finishes and
    already-recorded cells are restored instead of resimulated — this
    is what lets an interrupted ``repro-experiments all`` sweep resume
    from where it died, serial or parallel, under any worker count.
    """
    from repro.perf import parallel as perf_parallel

    effective = (
        workers if workers is not None
        else perf_parallel.get_default_workers()
    )
    if effective > 1:
        return perf_parallel.parallel_policy_sweep(
            cache, workloads, policy_specs, workers=effective
        )
    return {
        name: {
            label: checkpoint_mod.checkpointed_cell(
                cache.setup, (name, label),
                lambda: cache.simulate_policy(name, **kwargs),
            )
            for label, kwargs in policy_specs.items()
        }
        for name in workloads
    }


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure, plus summary notes."""

    experiment: str
    description: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        """Append one row (width-checked at render time)."""
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Append a free-form summary line."""
        self.notes.append(note)

    def column(self, header: str) -> List:
        """All values of the named column."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def row_by_label(self, label) -> List:
        """The first row whose first cell equals ``label``."""
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(f"no row labeled {label!r}")

    def render(self, float_digits: int = 3) -> str:
        """Human-readable report: title, table, notes."""
        parts = [
            render_table(
                self.headers,
                self.rows,
                float_digits=float_digits,
                title=f"{self.experiment}: {self.description}",
            )
        ]
        parts.extend(self.notes)
        return "\n".join(parts)
