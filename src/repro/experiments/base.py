"""Shared experiment infrastructure: setups, policy specs, the cell runner.

The paper's evaluation runs 100M-instruction SimPoint samples against a
512 KB L2. A pure-Python reproduction of that exact scale takes hours,
so experiments default to a *scaled* configuration — a 64 KB L2 with
footprints scaled accordingly (workload recipes size themselves
relative to the cache) and ~60K memory references per workload. The
``paper`` setup restores Table 1's geometry for users with patience;
the ``mini`` setup further shrinks things for the benchmark harness.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import pathlib
import sys
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.analysis.tables import render_table
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.multi import five_policy_adaptive, make_adaptive
from repro.core.partial import PartialTagScheme
from repro.core.sbar import SbarPolicy
from repro.cpu.config import ProcessorConfig
from repro.cpu import timing
from repro.cpu.timing import CompiledWorkload, TimingResult
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

    def workloads(self) -> List[str]:
        """The suite's primary-set workload names, which every sweep
        experiment replays unless told otherwise."""
        return workload_names(primary_only=True)


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


#: The sources a cached trace is a pure function of: the workload
#: recipes, this module's setups and the seeded RNG. CI keys its trace
#: cache on their digest too.
_TRACE_SOURCES = ("workloads/**/*.py", "experiments/base.py", "utils/rng.py")


@functools.lru_cache(maxsize=None)
def trace_sources_digest() -> str:
    """A short digest of the trace-generating sources, computed once per
    process, so a cached trace file of an edited recipe is never read."""
    root = pathlib.Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for pattern in _TRACE_SOURCES:
        for path in sorted(root.glob(pattern)):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


class WorkloadCache:
    """The on-disk trace cache of one setup.

    When the ``REPRO_TRACE_CACHE`` environment variable names a
    directory, built traces are persisted there as ``.npz`` files and
    reloaded on later runs; file names carry
    :func:`trace_sources_digest`, so an edited recipe builds afresh. A
    cached file that turns out truncated or corrupt
    (:class:`~repro.workloads.io.TraceFormatError`) is regenerated and
    rewritten transparently instead of crashing the sweep; regenerations
    are recorded in ``trace_recoveries``. Nothing is kept in memory:
    each :meth:`trace` call loads or builds afresh.
    """

    def __init__(self, setup: Setup):
        self.setup = setup
        self.trace_dir = os.environ.get("REPRO_TRACE_CACHE") or None
        self.trace_recoveries: List[str] = []

    def trace_path(self, name: str) -> Optional[str]:
        """Disk location of the workload's cached trace, or None."""
        if self.trace_dir is None:
            return None
        filename = (f"{name}-{self.setup.name}-{self.setup.accesses}"
                    f"-{trace_sources_digest()}.npz")
        return os.path.join(self.trace_dir, filename)

    def trace(self, name: str) -> Trace:
        """The workload's trace, loaded from disk or built (and saved)."""
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


_POLICY_SIGNATURE = inspect.signature(build_l2_policy)


@dataclass(frozen=True)
class Cell:
    """One simulator cell: a workload replayed on one L2 under one policy.

    ``spec`` holds the :func:`build_l2_policy` arguments with every
    default filled in, so two spellings of one policy compare equal.
    ``label`` names the cell in its experiment's checkpoint keys and
    takes no part in equality: equal cells are simulated once.
    """

    workload: str
    spec: Tuple[Tuple[str, Any], ...]
    l2: CacheConfig
    processor: ProcessorConfig
    label: str = field(default="", compare=False)

    @classmethod
    def of(
        cls,
        setup: Setup,
        workload: str,
        label: str,
        spec: Dict[str, Any],
        l2: Optional[CacheConfig] = None,
        processor: Optional[ProcessorConfig] = None,
    ) -> "Cell":
        """The cell of ``spec`` (``{"policy_kind": ..., **build_l2_policy
        kwargs}``) on ``workload``, at the setup's L2 and processor
        unless overridden."""
        kwargs = dict(spec)
        bound = _POLICY_SIGNATURE.bind(None, kwargs.pop("policy_kind"), **kwargs)
        bound.apply_defaults()
        arguments = bound.arguments
        del arguments["config"]
        arguments["components"] = tuple(arguments["components"])
        return cls(workload, tuple(arguments.items()), l2 or setup.l2,
                   processor or setup.processor, label)

    @property
    def coords(self) -> Tuple[str, str]:
        """The cell's checkpoint coordinates: (workload, label)."""
        return (self.workload, self.label)

    def simulate(self, compiled: CompiledWorkload) -> TimingResult:
        """Replay ``compiled`` on a fresh L2 under this cell's policy."""
        policy = build_l2_policy(self.l2, **dict(self.spec))
        l2 = SetAssociativeCache(self.l2, policy)
        return timing.simulate(compiled, l2, self.processor)


def policy_cells(
    setup: Setup, workloads: Sequence[str], specs: Dict[str, Dict[str, Any]]
) -> List[Cell]:
    """One cell per workload and ``specs`` entry (label -> spec)."""
    return [
        Cell.of(setup, name, label, spec)
        for name in workloads
        for label, spec in specs.items()
    ]


def _simulate_workload(task) -> List[Tuple[Cell, TimingResult]]:
    """Compile one workload once and simulate each of its cells.

    The per-workload step of :func:`run_cells`, serial or in a worker
    process (so it is module-level and takes one picklable task). The
    trace and its compiled form are dropped when it returns.
    """
    setup, workload, cells = task
    compiled = timing.compile_workload(
        WorkloadCache(setup).trace(workload), setup.processor
    )
    return [(cell, cell.simulate(compiled)) for cell in cells]


#: One experiment's simulated cells, keyed by ``cell.coords``.
Sweep = Dict[Tuple[str, str], TimingResult]


def run_sweeps(
    setup: Setup,
    sweeps: Mapping[str, Iterable[Cell]],
    checkpoint: Optional[checkpoint_mod.SweepCheckpoint] = None,
    workers: int = 1,
) -> Dict[str, Sweep]:
    """Simulate the cells of several experiments in one workload-major pass.

    ``sweeps`` maps each experiment to its cells; the result maps it to
    its :data:`Sweep`. Each workload with a cell not already known is
    built (or loaded from the trace cache) and compiled once; each of
    its pending cells is simulated once, whichever experiments declare
    it, and both are dropped before the next workload.

    With a ``checkpoint``, a cell is known when its experiment's key
    (``cell/<experiment>/<scale>/<accesses>/<workload>/<label>``) or an
    equal cell's key is recorded; each cell missing from its own key is
    recorded under it, in one write per workload, so an interrupted
    pass resumes under any worker count.

    ``workers`` above 1 (the CLI's ``--workers``) runs the workloads in
    worker processes; every cell is deterministic, so results are
    byte-identical to serial.
    """
    # Imported here: loading this module must not load the process pool.
    from repro.perf.parallel import ParallelRunner

    sweeps = {experiment: list(cells) for experiment, cells in sweeps.items()}
    known: Dict[Cell, TimingResult] = {}
    unstored: List[Tuple[checkpoint_mod.SweepCells, Cell]] = []
    for experiment, cells in sweeps.items():
        if checkpoint is None:
            break
        stored = checkpoint_mod.SweepCells(checkpoint, experiment, setup)
        for cell in cells:
            restored = stored.restore(cell.coords)
            if restored is None:
                unstored.append((stored, cell))
            else:
                known.setdefault(cell, restored)
    pending: Dict[str, Dict[Cell, None]] = {}
    for cells in sweeps.values():
        for cell in cells:
            if cell not in known:
                pending.setdefault(cell.workload, {})[cell] = None

    def store_known() -> None:
        # One checkpoint write per workload, not per cell: each write
        # rewrites the whole file.
        nonlocal unstored
        ready = {
            stored.key(cell.coords): checkpoint_mod.timing_to_dict(known[cell])
            for stored, cell in unstored
            if cell in known
        }
        if ready:
            checkpoint.update(ready)
        unstored = [entry for entry in unstored if entry[1] not in known]

    tasks = [(setup, name, list(group)) for name, group in pending.items()]
    runner = ParallelRunner(workers)
    map_tasks = runner.map if runner.workers > 1 else map
    store_known()
    for outcome in map_tasks(_simulate_workload, tasks):
        known.update(outcome)
        store_known()
    return {
        experiment: {cell.coords: known[cell] for cell in cells}
        for experiment, cells in sweeps.items()
    }


def run_cells(setup: Setup, cells: Iterable[Cell], workers: int = 1) -> Sweep:
    """:func:`run_sweeps` of one experiment's ``cells``, with no
    checkpoint."""
    return run_sweeps(setup, {"": cells}, workers=workers)[""]


def sweep_workloads(sweep: Sweep) -> List[str]:
    """The workloads of a :func:`run_cells` result, in cell order."""
    return list(dict.fromkeys(workload for workload, _label in sweep))


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

    def render(self) -> str:
        """Human-readable report: title, table, notes."""
        parts = [
            render_table(
                self.headers,
                self.rows,
                title=f"{self.experiment}: {self.description}",
            )
        ]
        parts.extend(self.notes)
        return "\n".join(parts)
