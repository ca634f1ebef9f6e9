"""Shard differential and cross-engine equivalence checks.

The online shard is observed purely through its public API (sentinel
``get`` defaults, recording compute functions, resident-key diffs), so
these tests also pin down that API's semantics. The cross-engine check
then proves a 1-set hardware cache and a ``CacheShard`` built from the
same policy make identical decisions on delete-free streams.
"""

import pytest
from hypothesis import given, settings

from repro.oracle.harness import (
    build_shard_pair,
    check_cross_engine,
    run_differential,
)
from repro.oracle.spec import spec_names
from repro.oracle.streams import hardware_stream, shard_ops
from tests import strategies

CAPACITY = 8

op_streams = strategies.shard_op_streams(max_key=23, max_size=250)


class TestShardDifferential:
    @pytest.mark.parametrize("name", spec_names())
    @given(ops=op_streams, seed=strategies.seeds(max_value=999))
    @settings(max_examples=20, deadline=None)
    def test_shard_matches_spec(self, name, ops, seed):
        pair = build_shard_pair(name, CAPACITY, seed=seed)
        divergence = run_differential(pair, ops, seed=seed)
        assert divergence is None, divergence.describe()

    @pytest.mark.parametrize(
        "components", [("lru", "lfu"), ("fifo", "mru"), ("lru", "random")]
    )
    @given(ops=op_streams, seed=strategies.seeds(max_value=99))
    @settings(max_examples=15, deadline=None)
    def test_adaptive_shard_matches_spec(self, components, ops, seed):
        pair = build_shard_pair("adaptive", CAPACITY, seed=seed,
                                components=components)
        divergence = run_differential(pair, ops, seed=seed)
        assert divergence is None, divergence.describe()


class TestCrossEngine:
    @pytest.mark.parametrize("name", spec_names() + ["adaptive"])
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_hardware_set_equals_shard(self, name, seed):
        divergence = check_cross_engine(name, capacity=CAPACITY,
                                        length=400, seed=seed)
        assert divergence is None, divergence.describe()

    def test_divergence_reports_are_replayable(self):
        """A mismatched pairing (different seeds on a seeded policy)
        must produce a divergence whose description carries the step,
        event and seed needed to replay it."""
        pair = build_shard_pair("random", CAPACITY, seed=1)
        pair.spec.spec._rng = type(pair.spec.spec._rng)(999)
        ops = shard_ops(seed=3, capacity=CAPACITY, length=400)
        divergence = run_differential(pair, ops, seed=3)
        assert divergence is not None
        assert divergence.seed == 3
        text = divergence.describe()
        assert "shard:random" in text
        assert f"step {divergence.step}" in text


class TestStreams:
    def test_streams_are_pure_functions_of_seed(self):
        assert hardware_stream(5, 4, 4, 100) == hardware_stream(5, 4, 4, 100)
        assert shard_ops(5, 8, 100) == shard_ops(5, 8, 100)
        assert hardware_stream(5, 4, 4, 100) != hardware_stream(6, 4, 4, 100)
        assert shard_ops(5, 8, 100) != shard_ops(6, 8, 100)

    def test_stream_shapes(self):
        for set_index, tag, is_write in hardware_stream(0, 4, 4, 200):
            assert 0 <= set_index < 4
            assert tag >= 0
            assert isinstance(is_write, bool)
        ops = shard_ops(0, 8, 200)
        kinds = {op for op, _ in ops}
        assert kinds <= set(strategies.SHARD_OPS)
        assert len(kinds) == 4  # long streams exercise every op
