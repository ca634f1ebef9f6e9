"""Process-parallel sweeps with deterministic results.

Every cell of a sweep — one (workload, L2, policy, processor)
simulation — is a pure function of its coordinates: traces are
generated from deterministic RNG seeds, policies take explicit seeds,
and the timing model is seed-free. That makes a sweep embarrassingly
parallel *without* sacrificing reproducibility.
:func:`repro.experiments.base.run_sweeps` hands its per-workload step
(build the trace, compile it once, simulate every pending cell) to
:meth:`ParallelRunner.map` instead of the builtin ``map``; everything
else — checkpoint restore and store, the merge keyed by cell — is the
serial path's, so the results (golden digests included) are
byte-identical to a serial run.

Failure handling:

* a task that raises re-raises its exception in the parent, as the
  serial loop would;
* a worker process dying outright (``BrokenProcessPool``) restarts the
  pool and resubmits the unfinished tasks, a bounded number of times;
* when restarts are exhausted, the remaining tasks run in-process, so a
  sweep always terminates with either results or a real traceback.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterable, Iterator, TypeVar

try:  # BrokenProcessPool moved homes across Python versions.
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - ancient stdlib layout
    BrokenProcessPool = RuntimeError  # type: ignore[assignment,misc]

T = TypeVar("T")
R = TypeVar("R")

class ParallelRunner:
    """Maps a picklable function over tasks in worker processes.

    Args:
        workers: worker process count; values above 1 parallelize.
    """

    #: How many times a crashed pool is rebuilt before the remaining
    #: tasks fall back to in-process runs.
    MAX_POOL_RESTARTS = 2

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.pool_restarts = 0
        self.fallback_tasks = 0

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> Iterator[R]:
        """``fn(task)`` for every task, yielded in completion order.

        ``fn`` must be module-level and its tasks and results picklable.
        A pool that dies is rebuilt for the unfinished tasks; after
        ``MAX_POOL_RESTARTS`` rebuilds they run in-process.
        """
        remaining = list(tasks)
        restarts_left = self.MAX_POOL_RESTARTS
        while remaining:
            finished = set()
            try:
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    futures = {
                        pool.submit(fn, task): index
                        for index, task in enumerate(remaining)
                    }
                    try:
                        for future in as_completed(futures):
                            result = future.result()
                            finished.add(futures[future])
                            yield result
                    finally:
                        # On a failed task or an abandoned map, leaving
                        # the pool must not wait for the queued tasks.
                        for future in futures:
                            future.cancel()
                return
            except BrokenProcessPool:
                remaining = [
                    task for index, task in enumerate(remaining)
                    if index not in finished
                ]
                if restarts_left > 0:
                    restarts_left -= 1
                    self.pool_restarts += 1
                    continue
                # Pool keeps dying: finish in-process so the sweep still
                # terminates (and a genuinely crashing task produces a
                # real traceback instead of a dead pool).
                self.fallback_tasks += len(remaining)
                for task in remaining:
                    yield fn(task)
                return
