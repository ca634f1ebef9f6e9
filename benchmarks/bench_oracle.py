"""Benchmarks for the differential-oracle subsystem.

Timed here because the oracle sits on the inner development loop: the
single-pass Mattson stack-distance engine (all associativities at once
vs one simulation per associativity) and the differential harness's
per-event overhead decide how often developers can afford to run them.
"""

import pytest

from repro.experiments.base import make_setup
from repro.oracle.harness import (
    build_hardware_pair,
    build_shard_pair,
    differential_campaign,
    run_differential,
)
from repro.oracle.stack import lru_hits_all_ways
from repro.oracle.streams import hardware_stream, shard_ops
from repro.workloads.suite import build_workload

NUM_SETS = 16
MAX_WAYS = 8
STACK_ACCESSES = 20000
HARNESS_EVENTS = 2000


@pytest.fixture(scope="module")
def blocks():
    """Block addresses from a named-suite workload (mcf, mini scale)."""
    setup = make_setup("mini", accesses=STACK_ACCESSES)
    trace = build_workload("mcf", setup.l2, accesses=STACK_ACCESSES)
    return [address >> 6 for _kind, address, _gap in trace.memory_records()]


def test_stack_distance_all_ways(benchmark, blocks):
    hits = benchmark(lru_hits_all_ways, blocks, NUM_SETS, MAX_WAYS)
    benchmark.extra_info["accesses"] = len(blocks)
    benchmark.extra_info["hits_at_max_ways"] = hits[-1]
    assert all(a <= b for a, b in zip(hits, hits[1:]))


@pytest.mark.parametrize("name", ["lru", "adaptive"])
def test_hardware_differential_throughput(benchmark, name):
    events = hardware_stream(1, 4, 4, HARNESS_EVENTS)

    def run():
        pair = build_hardware_pair(name, 4, 4, seed=1)
        return run_differential(pair, events, seed=1)

    divergence = benchmark(run)
    benchmark.extra_info["events"] = len(events)
    assert divergence is None


def test_shard_differential_throughput(benchmark):
    events = shard_ops(1, 8, HARNESS_EVENTS)

    def run():
        pair = build_shard_pair("adaptive", 8, seed=1)
        return run_differential(pair, events, seed=1)

    divergence = benchmark(run)
    benchmark.extra_info["events"] = len(events)
    assert divergence is None


def test_full_campaign(benchmark):
    """The acceptance-criterion campaign, timed end to end."""
    report = benchmark.pedantic(differential_campaign, rounds=1,
                                iterations=1)
    benchmark.extra_info["runs"] = report.runs
    benchmark.extra_info["events"] = report.events
    assert report.ok, report.summary()
