"""Serving memory is bounded by capacity, not by traffic.

The paper prices what adaptivity adds as a fixed fraction of the cache
(shadow tags, partial tags, SBAR counters), never as something that
grows with the requests served. Each guard drives one serving stack
with a Zipf-like get_or_compute/put mix: ``OPS`` operations to fill it
and reach steady state, then ``OPS`` more under tracemalloc. What the
second half leaves allocated, divided by its operation count, must stay
under ``BYTES_PER_OP``. A capacity-bounded stack keeps 1.5-5 B/op
here: tables and heaps the size of the cache are rebuilt inside the
window, so that residue scales with ``CAPACITY / OPS``, not with
traffic. A per-operation log of tuples keeps over 200 B/op.
"""

import gc
import random
import tracemalloc

import pytest

from repro.cluster.cache import ClusterKVCache
from repro.online.engine import AdaptiveKVCache
from repro.online.persistence import PersistentKVCache
from repro.online.resilience import ResilientKVCache
from repro.tiers.kv import client_local_topology

OPS = 20_000
BYTES_PER_OP = 16
UNIVERSE = 8_192
CAPACITY = 64
PUT_FRACTION = 0.2


def _engine():
    return AdaptiveKVCache(capacity_entries=CAPACITY, num_shards=4)


def _cluster():
    return ClusterKVCache(num_nodes=3, replication=3,
                          capacity_per_node=CAPACITY)


STACKS = {
    "engine": lambda directory: _engine(),
    "resilient": lambda directory: ResilientKVCache(_engine()),
    "persistent": lambda directory: PersistentKVCache(
        _engine(), str(directory), snapshot_every=5_000,
    ),
    "cluster": lambda directory: _cluster(),
    "client_local": lambda directory: client_local_topology(
        _cluster(), local_capacity=16, cluster_capacity=CAPACITY,
    ),
}


def drive(stack, rng, ops):
    """``ops`` requests; keys are log-uniform over the universe (a
    Zipf-like skew with exponent ~1), values fresh objects."""
    for step in range(ops):
        key = int(UNIVERSE ** rng.random()) - 1
        if rng.random() < PUT_FRACTION:
            stack.put(key, ("put", key, step))
        else:
            stack.get_or_compute(key, lambda k: ("loaded", k))


@pytest.mark.parametrize("name", sorted(STACKS))
def test_memory_kept_per_op_is_bounded(name, tmp_path):
    stack = STACKS[name](tmp_path / "wal")
    rng = random.Random(7)
    try:
        drive(stack, rng, OPS)  # fill to capacity; steady state
        gc.collect()
        tracemalloc.start()
        try:
            drive(stack, rng, OPS)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    finally:
        if isinstance(stack, PersistentKVCache):
            stack.close()
    assert kept <= BYTES_PER_OP * OPS, (
        f"{name}: {kept / OPS:.1f} B kept per op"
    )
