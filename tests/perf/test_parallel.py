"""Unit tests for the process-parallel sweep executor.

The contract under test is the module's headline claim: a parallel
sweep is *byte-identical* to the serial loop — same cells, same
checkpoint keys, same merged ordering — while surviving worker-pool
crashes and resuming mid-sweep under a different worker count.

Scales are deliberately tiny (hundreds of accesses, two workloads) so
the real-process tests stay fast on a single-core CI box.
"""

import time

import pytest

from repro.experiments import (
    checkpoint as checkpoint_mod,
    cli,
    ext_dip,
    fig3_mpki,
    fig4_cpi,
    fig5_partial_tags,
    fig6_capacity,
    fig8_fifo_mru,
    fig9_associativity,
    fig10_store_buffer,
    sec44_five_policy,
    sec47_sbar,
)
from repro.experiments import cli
from repro.experiments.base import (
    Cell, make_setup, policy_cells, run_cells, run_sweeps,
)
from repro.experiments.checkpoint import (
    SweepCells,
    SweepCheckpoint,
    timing_to_dict,
)
from repro.perf import parallel as parallel_mod
from repro.perf.parallel import ParallelRunner

WORKLOADS = ["lucas", "art-1"]
SPECS = {
    "LRU": {"policy_kind": "lru"},
    "Adaptive": {"policy_kind": "adaptive"},
}
ACCESSES = 800
SETUP = make_setup("mini", accesses=ACCESSES)


def serialize(sweep):
    """Checkpoint-format dump of a sweep result, for exact comparison."""
    return {coords: timing_to_dict(cell) for coords, cell in sweep.items()}


def sweep(workloads=WORKLOADS, specs=SPECS, checkpoint=None, workers=1):
    cells = policy_cells(SETUP, workloads, specs)
    return run_sweeps(SETUP, {"t": cells}, checkpoint, workers)["t"]


class _BrokenPool:
    """Stand-in executor whose construction always dies like a crashed
    worker pool, forcing ParallelRunner down its restart/fallback path."""

    def __init__(self, *args, **kwargs):
        raise parallel_mod.BrokenProcessPool("pool crashed")


@pytest.fixture
def broken_pool(monkeypatch):
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _BrokenPool)


@pytest.fixture
def runners(monkeypatch):
    """Every ParallelRunner whose ``map`` a sweep calls."""
    seen = []
    real_map = ParallelRunner.map

    def recording(self, fn, tasks):
        seen.append(self)
        return real_map(self, fn, tasks)

    monkeypatch.setattr(ParallelRunner, "map", recording)
    return seen


class TestWorkers:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)

    def test_cli_workers_reach_the_sweep_pass(self, broken_pool, runners,
                                              capsys):
        """``--workers`` is handed to the sweep pass itself: the pool is
        asked for at 2 and not at 1, with the same printed result."""
        args = ["fig3", "--scale", "mini", "--accesses", str(ACCESSES),
                "--workloads", "lucas"]
        assert cli.main([*args, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert runners == []
        assert cli.main([*args, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert [runner.workers for runner in runners] == [2]


class TestByteEquality:
    def test_parallel_matches_serial(self):
        """The headline guarantee: workers=2 over real processes yields
        exactly the serial loop's cells, in the caller's order."""
        serial = sweep()
        parallel = sweep(workers=2)
        assert serialize(parallel) == serialize(serial)
        assert list(parallel) == [
            (name, label) for name in WORKLOADS for label in SPECS
        ]

    def test_explicit_workers_route_to_parallel(self, broken_pool,
                                                 runners):
        """A sweep runs serially unless it is given workers: at 2 the
        pool is asked for, and its fallback still produces the serial
        cells."""
        serial = sweep(WORKLOADS[:1])
        assert runners == []
        routed = sweep(WORKLOADS[:1], workers=2)
        assert serialize(routed) == serialize(serial)
        assert [runner.fallback_tasks for runner in runners] == [1]

    @pytest.mark.parametrize("module", [
        fig3_mpki, fig4_cpi, fig5_partial_tags, fig6_capacity, fig8_fifo_mru,
        fig9_associativity, fig10_store_buffer, sec44_five_policy,
        sec47_sbar, ext_dip,
    ], ids=lambda module: module.__name__.rsplit(".", 1)[-1])
    def test_experiment_renders_identically(self, module, capsys):
        """Every experiment on the cell runner prints the same bytes at
        --workers 1 and --workers 2."""
        name = next(key for key, value in cli.EXPERIMENTS.items()
                    if value is module)
        args = [name, "--scale", "mini", "--accesses", str(ACCESSES),
                "--workloads", *WORKLOADS]
        outputs = []
        for workers in ("1", "2"):
            assert cli.main([*args, "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert f"{name}:" in outputs[0]


def _negate(value):
    return -value


def _touch_or_fail(task):
    """Task 0 fails at once; every other task takes a while, then
    leaves a marker file."""
    directory, index = task
    if index == 0:
        raise ValueError("first task fails")
    time.sleep(0.2)
    (directory / f"{index}.done").touch()


class TestCrashRecovery:
    def test_broken_pool_falls_back_in_process(self, broken_pool):
        """Restarts exhaust, then tasks complete in-process — the map
        still terminates with every result."""
        runner = ParallelRunner(workers=2)
        assert sorted(runner.map(_negate, [3, 1, 2])) == [-3, -2, -1]
        assert runner.pool_restarts == ParallelRunner.MAX_POOL_RESTARTS
        assert runner.fallback_tasks == 3

    def test_pool_map_yields_every_result(self):
        runner = ParallelRunner(workers=2)
        assert sorted(runner.map(_negate, range(5))) == [-4, -3, -2, -1, 0]
        assert runner.pool_restarts == runner.fallback_tasks == 0

    def test_failing_task_cancels_queued_tasks(self, tmp_path):
        """A failed task raises without the queued tasks running first:
        only those already handed to a worker finish."""
        tasks = [(tmp_path, index) for index in range(12)]
        with pytest.raises(ValueError, match="first task fails"):
            list(ParallelRunner(workers=2).map(_touch_or_fail, tasks))
        assert len(list(tmp_path.glob("*.done"))) < len(tasks) - 1

    @pytest.mark.parametrize("pool", ["real", "broken"])
    def test_failing_cell_raises(self, pool, monkeypatch):
        """A cell that raises in a worker (or in the in-process
        fallback) re-raises its own exception, as the serial loop's."""
        if pool == "broken":
            monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor",
                                _BrokenPool)
        bad = Cell.of(SETUP, "lucas", "Bad", {"policy_kind": "no-such-policy"})
        with pytest.raises(ValueError, match="no-such-policy"):
            run_cells(SETUP, [bad], workers=2)


class TestCheckpointResume:
    def test_parallel_restores_checkpointed_cells(self, tmp_path,
                                                  broken_pool):
        """A cell already in the checkpoint is restored, not recomputed:
        poisoning its recorded cycles must show up in the merged result."""
        ckpt = SweepCheckpoint(tmp_path / "ck.json")
        first = sweep(WORKLOADS[:1], {"LRU": SPECS["LRU"]}, ckpt, workers=2)
        key = ckpt.cell_key("cell", "t", SETUP.name, SETUP.accesses,
                            "lucas", "LRU")
        poisoned = dict(ckpt.get(key))
        poisoned["cycles"] = 123456.0
        ckpt.put(key, poisoned)

        resumed = sweep(WORKLOADS[:1], checkpoint=ckpt, workers=2)
        assert resumed["lucas", "LRU"].cycles == 123456.0
        # The un-checkpointed label was freshly computed and persisted.
        adaptive_key = ckpt.cell_key("cell", "t", SETUP.name,
                                     SETUP.accesses, "lucas", "Adaptive")
        assert ckpt.get(adaptive_key) is not None
        assert first["lucas", "LRU"].name == "lucas"

    def test_mid_sweep_resume_under_different_worker_count(self, tmp_path):
        """A sweep checkpointed serially resumes parallel (and vice
        versa): cell keys are worker-count-independent, and the final
        merged result matches an uninterrupted serial sweep exactly."""
        path = tmp_path / "ck.json"
        # Phase 1: serial run completes only the first workload (a
        # mid-sweep kill between workloads).
        sweep(WORKLOADS[:1], checkpoint=SweepCheckpoint(path))

        # Phase 2: resume the full sweep under workers=2.
        resumed_ckpt = SweepCheckpoint(path)
        cells = SweepCells(resumed_ckpt, "t", SETUP)
        phase1 = {label: resumed_ckpt.get(cells.key((WORKLOADS[0], label)))
                  for label in SPECS}
        assert None not in phase1.values()
        resumed = sweep(checkpoint=resumed_ckpt, workers=2)

        reference = sweep()
        assert serialize(resumed) == serialize(reference)
        # Phase 1's cells were restored (still present, not rewritten
        # under different keys) and phase 2 added the second workload's.
        assert phase1 == {
            label: resumed_ckpt.get(cells.key((WORKLOADS[0], label)))
            for label in SPECS}
        assert len(resumed_ckpt) == len(WORKLOADS) * len(SPECS)

    def test_checkpoint_oblivious_without_checkpoint(self, monkeypatch):
        """No checkpoint given: the parallel path runs everything and
        touches no checkpoint machinery."""
        monkeypatch.setattr(checkpoint_mod, "SweepCells", None)
        result = sweep(WORKLOADS[:1], {"LRU": SPECS["LRU"]}, workers=2)
        assert result["lucas", "LRU"].l2_accesses > 0
