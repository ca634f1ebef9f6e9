"""Memory guards for the simulator path: traces and compiled workloads
stay columnar.

Each guard measures, with tracemalloc, what a freshly built object
retains: at most 17 bytes per record. A trace's int8/int64/int32 columns
take 13; the compiled L2 columns take 13 plus the typed arrays' growth
headroom. Per-record Python tuples took ~105 B per trace record and
~77 B per L2 event.
"""

import gc
import tracemalloc

import pytest

from repro.cpu.timing import compile_workload
from repro.experiments.base import make_setup
from repro.workloads.suite import build_workload

BYTES_PER_RECORD = 17


def retained_bytes(make):
    """``make()`` and the bytes its result still holds once it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = make()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def setup():
    return make_setup("scaled")


def build(setup):
    return build_workload("art-1", setup.l2, accesses=20_000)


def test_trace_bytes_per_record(setup):
    build(setup)  # warm imports and caches outside the measurement
    trace, held = retained_bytes(lambda: build(setup))
    assert len(trace) > 20_000
    assert held <= BYTES_PER_RECORD * len(trace)


def test_compiled_workload_bytes_per_record(setup):
    trace = build(setup)
    compile_workload(trace, setup.processor)
    compiled, held = retained_bytes(lambda: compile_workload(trace, setup.processor))
    events = len(compiled.l2_kinds)
    assert events > 5_000
    assert held <= BYTES_PER_RECORD * events
