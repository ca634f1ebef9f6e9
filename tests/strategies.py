"""Shared hypothesis strategies for the whole test suite.

Every property-based test draws its inputs from here, so the suite
explores one consistent input space: block-address streams sized to
force evictions, online key streams (ints and strings), per-component
miss-history events, instruction-trace records and small cache
geometries. Strategies are exposed as *factories* (functions returning
strategies) so each test site can pin the universe/length bounds its
invariant needs while sharing the generation shape.
"""

from hypothesis import strategies as st

from repro.workloads.trace import (
    KIND_BRANCH_NOT_TAKEN,
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    KIND_STORE,
)

#: The five classic policies the paper's experiments sweep.
CLASSIC_POLICIES = ("lru", "lfu", "fifo", "mru", "random")

#: Shard operations understood by the oracle's differential harness.
SHARD_OPS = ("get", "get_or_compute", "put", "delete")


def block_streams(max_block=200, min_size=1, max_size=400):
    """Streams of block addresses over a small, hot universe.

    The universe is kept a small multiple of typical test-cache capacity
    so sets refill and evict repeatedly — replacement policies only act
    on full sets.
    """
    return st.lists(
        st.integers(min_value=0, max_value=max_block),
        min_size=min_size, max_size=max_size,
    )


def policy_names(names=CLASSIC_POLICIES):
    """One registry policy name."""
    return st.sampled_from(list(names))


def int_key_streams(max_key=60, min_size=1, max_size=600):
    """Online-cache key streams of small integers (hot universe)."""
    return st.lists(
        st.integers(min_value=0, max_value=max_key),
        min_size=min_size, max_size=max_size,
    )


def str_key_streams(alphabet="abcdef", max_length=3, min_size=1,
                    max_size=600):
    """Online-cache key streams of short strings."""
    return st.lists(
        st.text(alphabet=alphabet, min_size=1, max_size=max_length),
        min_size=min_size, max_size=max_size,
    )


def shard_op_streams(max_key=23, min_size=1, max_size=300):
    """Streams of (op, key) pairs for differential shard testing."""
    return st.lists(
        st.tuples(st.sampled_from(SHARD_OPS),
                  st.integers(min_value=0, max_value=max_key)),
        min_size=min_size, max_size=max_size,
    )


def history_events(components=2, min_size=1, max_size=200):
    """Per-access component miss vectors for history-buffer tests."""
    return st.lists(
        st.tuples(*(st.booleans() for _ in range(components))),
        min_size=min_size, max_size=max_size,
    )


def fault_rates():
    """Fault-injection rates over the full [0, 1] range."""
    return st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def seeds(max_value=2**31):
    """RNG seeds."""
    return st.integers(min_value=0, max_value=max_value)


def trace_records(max_block=300, max_gap=20, min_size=1, max_size=250):
    """Raw (kind, block, gap) instruction-trace records.

    Suitable for :func:`tests.property.test_model_properties.make_trace`
    -style assembly into a :class:`repro.workloads.trace.Trace`.
    """
    return st.lists(
        st.tuples(
            st.sampled_from(
                [KIND_LOAD, KIND_STORE, KIND_BRANCH_TAKEN,
                 KIND_BRANCH_NOT_TAKEN]
            ),
            st.integers(min_value=0, max_value=max_block),
            st.integers(min_value=0, max_value=max_gap),
        ),
        min_size=min_size, max_size=max_size,
    )


def stream_specs(max_rate=800.0, max_clients=8, mixes=("A", "B", "C", "D")):
    """Open-loop :class:`~repro.workloads.keystreams.StreamSpec` inputs.

    Small rates keep property runs fast while still
    exercising both arrival processes, every YCSB mix and the
    per-client beta skew.
    """
    from repro.workloads.keystreams import StreamSpec

    return st.builds(
        StreamSpec,
        rate=st.floats(min_value=5.0, max_value=max_rate,
                       allow_nan=False, allow_infinity=False),
        mix=st.sampled_from(list(mixes)),
        clients=st.integers(min_value=1, max_value=max_clients),
        process=st.sampled_from(["poisson", "mmpp"]),
        seed=seeds(),
    )


def latency_samples(min_size=1, max_size=300, max_value=1e4):
    """Non-negative latency-like float samples for quantile testing."""
    return st.lists(
        st.floats(min_value=0.0, max_value=max_value,
                  allow_nan=False, allow_infinity=False),
        min_size=min_size, max_size=max_size,
    )


def geometries(max_sets_log2=3, max_ways=8):
    """Small (num_sets, ways) cache geometries (power-of-two sets)."""
    return st.tuples(
        st.sampled_from([1 << i for i in range(max_sets_log2 + 1)]),
        st.integers(min_value=1, max_value=max_ways),
    )
