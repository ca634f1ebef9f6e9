"""Memory guard for sweeps: the cell runner holds one compiled workload.

``run_cells`` works workload-major: it compiles a workload, simulates
every pending cell of it, and drops the trace and compiled form before
the next workload. So the number of live ``CompiledWorkload`` objects
never grows with the number of workloads swept.
"""

import weakref

import pytest

from repro.cpu import timing
from repro.experiments.base import make_setup, policy_cells, run_cells

WORKLOADS = ["lucas", "art-1", "ammp", "mcf", "swim"]
SPECS = {"LRU": {"policy_kind": "lru"}, "Adaptive": {"policy_kind": "adaptive"}}


@pytest.mark.parametrize("count", [1, len(WORKLOADS)])
def test_one_compiled_workload_alive_at_a_time(count, monkeypatch):
    refs = []  # CompiledWorkload compares by value, so no WeakSet
    seen = []
    real_compile, real_simulate = timing.compile_workload, timing.simulate

    def alive():
        return sum(ref() is not None for ref in refs)

    def tracking_compile(trace, config):
        compiled = real_compile(trace, config)
        refs.append(weakref.ref(compiled))
        seen.append(alive())
        return compiled

    def tracking_simulate(compiled, l2, config):
        seen.append(alive())
        return real_simulate(compiled, l2, config)

    monkeypatch.setattr(timing, "compile_workload", tracking_compile)
    monkeypatch.setattr(timing, "simulate", tracking_simulate)
    setup = make_setup("mini", accesses=1000)
    results = run_cells(setup, policy_cells(setup, WORKLOADS[:count], SPECS))
    assert len(results) == count * len(SPECS)
    assert len(seen) == count * (1 + len(SPECS))
    assert max(seen) == 1
    assert alive() == 0
