"""Process-parallel policy sweeps with deterministic results.

Every cell of a sweep — one (workload, policy spec) simulation — is a
pure function of its coordinates: traces are generated from
deterministic RNG seeds, policies take explicit seeds, and the timing
model is seed-free. That makes the sweep embarrassingly parallel
*without* sacrificing reproducibility: this module fans cells out over
a ``concurrent.futures.ProcessPoolExecutor`` and reassembles them in
the same (workload, label) order the serial loop produces, so the
merged result — and everything derived from it, golden digests
included — is byte-identical to a serial run.

Tasks are grouped by workload: building and L1-compiling a trace is the
expensive policy-independent phase, so each worker task compiles its
workload once and simulates every (non-checkpointed) policy label
against it, exactly like :class:`~repro.experiments.base.WorkloadCache`
does in-process.

Failure handling mirrors the serial runner's philosophy:

* inside a worker, each cell runs under
  :func:`repro.experiments.runner.run_cell` (crash isolation + retry);
* a worker process dying outright (``BrokenProcessPool``) restarts the
  pool and resubmits the unfinished tasks, a bounded number of times;
* when restarts are exhausted, the remaining tasks run in-process, so a
  sweep always terminates with either results or a real traceback;
* completed cells are written to the active
  :class:`~repro.experiments.checkpoint.SweepCheckpoint` as they
  arrive, so a killed parallel sweep resumes — under any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments.runner import RetryPolicy, run_cell

try:  # BrokenProcessPool moved homes across Python versions.
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - ancient stdlib layout
    BrokenProcessPool = RuntimeError  # type: ignore[assignment,misc]


# Process-wide default worker count, set by the CLI's --workers flag so
# experiments stay oblivious (the same pattern as the trace cache dir in
# repro.experiments.base). 1 means serial.
_DEFAULT_WORKERS: int = 1


def set_default_workers(workers: int) -> None:
    """Set the process-wide sweep worker count (1 = serial)."""
    global _DEFAULT_WORKERS
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _DEFAULT_WORKERS = workers


def get_default_workers() -> int:
    """The process-wide sweep worker count."""
    return _DEFAULT_WORKERS


def _simulate_workload_task(payload: dict) -> dict:
    """Worker entry point: one workload, every requested policy label.

    Runs in a child process, so it must be module-level (picklable) and
    rebuild everything from the picklable ``payload``. Each label runs
    under :func:`run_cell` for crash isolation; failures come back as
    strings (tracebacks don't pickle reliably), successes as
    checkpoint-format timing dicts.
    """
    import traceback

    from repro.experiments import base as base_mod

    if payload.get("trace_dir"):
        base_mod.set_default_trace_dir(payload["trace_dir"])
    setup = base_mod.make_setup(payload["scale"], accesses=payload["accesses"])
    cache = base_mod.WorkloadCache(setup)
    workload = payload["workload"]
    retry = RetryPolicy(attempts=payload.get("cell_attempts", 1),
                        base_delay=0.01, max_delay=0.1)
    cells: Dict[str, dict] = {}
    errors: Dict[str, str] = {}
    for label, kwargs in payload["specs"].items():
        outcome = run_cell(
            lambda kw=kwargs: cache.simulate_policy(workload, **kw),
            name=f"{workload}/{label}",
            retry=retry,
            seed=payload.get("seed", 0),
        )
        if outcome.failed:
            errors[label] = "".join(
                traceback.format_exception_only(
                    type(outcome.error), outcome.error
                )
            ).strip()
        else:
            cells[label] = checkpoint_mod.timing_to_dict(outcome.value)
    return {"workload": workload, "cells": cells, "errors": errors}


class ParallelRunner:
    """Fans sweep cells over worker processes; merges deterministically.

    Args:
        workers: worker process count; values above 1 parallelize.
        max_pool_restarts: how many times a crashed pool is rebuilt
            before the remaining tasks fall back to in-process runs.
        cell_attempts: per-cell retry attempts inside each worker.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_pool_restarts: int = 2,
        cell_attempts: int = 1,
    ):
        self.workers = workers if workers is not None else _DEFAULT_WORKERS
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        self.max_pool_restarts = max_pool_restarts
        self.cell_attempts = cell_attempts
        self.pool_restarts = 0
        self.fallback_tasks = 0

    # ------------------------------------------------------------------
    # Payload plumbing
    # ------------------------------------------------------------------

    def _payloads(
        self, cache, pending: "Dict[str, Dict[str, dict]]"
    ) -> List[dict]:
        """One picklable worker payload per workload with pending cells."""
        from repro.experiments import base as base_mod

        trace_dir = cache.trace_dir or base_mod._DEFAULT_TRACE_DIR
        return [
            {
                "scale": cache.setup.name,
                "accesses": cache.setup.accesses,
                "workload": workload,
                "specs": specs,
                "trace_dir": trace_dir,
                "cell_attempts": self.cell_attempts,
            }
            for workload, specs in pending.items()
            if specs
        ]

    def _run_payloads(self, payloads: List[dict]) -> List[dict]:
        """Execute payloads across the pool, surviving worker crashes."""
        remaining = list(payloads)
        collected: List[dict] = []
        restarts_left = self.max_pool_restarts
        while remaining:
            try:
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    futures = {
                        pool.submit(_simulate_workload_task, payload): payload
                        for payload in remaining
                    }
                    not_done = set(futures)
                    while not_done:
                        done, not_done = wait(
                            not_done, return_when=FIRST_COMPLETED
                        )
                        for future in done:
                            collected.append(future.result())
                            remaining.remove(futures[future])
            except BrokenProcessPool:
                if restarts_left > 0:
                    restarts_left -= 1
                    self.pool_restarts += 1
                    continue
                # Pool keeps dying: finish in-process so the sweep still
                # terminates (and a genuinely crashing cell produces a
                # real traceback instead of a dead pool).
                self.fallback_tasks += len(remaining)
                for payload in remaining:
                    collected.append(_simulate_workload_task(payload))
                remaining = []
        return collected

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------

    def run_sweep(
        self,
        cache,
        workloads: Sequence[str],
        policy_specs: Dict[str, dict],
    ) -> Dict[str, Dict[str, "object"]]:
        """Parallel equivalent of the serial ``run_policy_sweep`` loop.

        Byte-identical results: every cell is deterministic given its
        coordinates, and the merge below iterates ``workloads`` x
        ``policy_specs`` in the caller's order, not completion order.
        Checkpointed cells are restored without resimulating; freshly
        computed cells are persisted as their workload task completes.

        Raises:
            RuntimeError: when any cell fails in the worker even after
                its in-worker retries (mirroring the serial loop, where
                the exception would propagate to the experiment cell).
        """
        cells = checkpoint_mod.sweep_cells(cache.setup)
        done: Dict[Tuple[str, str], object] = {}
        pending: Dict[str, Dict[str, dict]] = {}
        for name in workloads:
            pending[name] = {}
            for label, kwargs in policy_specs.items():
                cell = cells.restore((name, label)) if cells else None
                if cell is None:
                    pending[name][label] = kwargs
                else:
                    done[(name, label)] = cell

        failures: List[str] = []
        for task in self._run_payloads(self._payloads(cache, pending)):
            workload = task["workload"]
            for label, payload in task["cells"].items():
                done[(workload, label)] = (
                    checkpoint_mod.timing_from_dict(payload)
                )
                if cells is not None:
                    cells.store((workload, label), payload)
            for label, message in task["errors"].items():
                failures.append(f"{workload}/{label}: {message}")
        if failures:
            raise RuntimeError(
                "parallel sweep cells failed: " + "; ".join(sorted(failures))
            )
        return {
            name: {label: done[(name, label)] for label in policy_specs}
            for name in workloads
        }


def parallel_policy_sweep(
    cache,
    workloads: Sequence[str],
    policy_specs: Dict[str, dict],
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, "object"]]:
    """Run a policy sweep over worker processes (module-level sugar).

    ``run_policy_sweep(..., workers=N)`` routes here for N > 1; callers
    can also invoke it directly with a
    :class:`~repro.experiments.base.WorkloadCache`.
    """
    return ParallelRunner(workers=workers).run_sweep(
        cache, workloads, policy_specs
    )


def recommended_workers() -> int:
    """A sensible ``--workers`` default: the machine's CPU count."""
    return os.cpu_count() or 1
