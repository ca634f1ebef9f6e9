"""Unit tests for WorkloadBuilder and BranchProfile."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.workloads.builder import (
    CODE_SEGMENT_BASE,
    DATA_SEGMENT_BASE,
    BranchProfile,
    WorkloadBuilder,
)
from repro.workloads.trace import (
    KIND_BRANCH_NOT_TAKEN,
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    KIND_STORE,
)


def reference_build(self, name, line_stream):
    """The per-record builder loop the columnar ``build`` replaced, kept
    verbatim as the reference: the same RNG draws, then one tuple per
    record."""
    n = len(line_stream)
    rng = np.random.default_rng(self.seed)

    if self.mean_gap > 0:
        p = 1.0 / (1.0 + self.mean_gap)
        gaps = rng.geometric(p, size=n) - 1
    else:
        gaps = np.zeros(n, dtype=np.int64)
    is_store = rng.random(n) < self.write_fraction

    profile = self.branches
    if profile is None or profile.density == 0:
        branch_here = np.zeros(n, dtype=bool)
    else:
        # Bernoulli thinning approximates `density` branches/reference.
        branch_here = rng.random(n) < min(profile.density, 1.0)
    is_random_site = rng.random(n) < (
        profile.random_fraction if profile else 0.0
    )
    site_pick = rng.integers(0, profile.sites if profile else 1, size=n)
    taken_roll = rng.random(n)

    addresses = (
        np.asarray(line_stream, dtype=np.int64) * self.line_bytes
        + DATA_SEGMENT_BASE
    )

    records = []
    append = records.append
    for i in range(n):
        if branch_here[i]:
            if is_random_site[i]:
                pc = CODE_SEGMENT_BASE + 0x1000 + int(site_pick[i]) * 4
                taken = taken_roll[i] < profile.random_bias
            else:
                pc = CODE_SEGMENT_BASE + int(site_pick[i]) % 8 * 4
                taken = taken_roll[i] < profile.loop_bias
            kind = KIND_BRANCH_TAKEN if taken else KIND_BRANCH_NOT_TAKEN
            append((kind, pc, int(gaps[i]) // 2))
            mem_gap = int(gaps[i]) - int(gaps[i]) // 2
        else:
            mem_gap = int(gaps[i])
        kind = KIND_STORE if is_store[i] else KIND_LOAD
        append((kind, int(addresses[i]), mem_gap))
    return name, records


unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
profiles = st.one_of(
    st.none(),
    st.builds(
        BranchProfile,
        density=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 2.5)),
        loop_bias=unit,
        random_fraction=unit,
    ),
)


class TestColumnarBuildMatchesReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        mean_gap=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
        write_fraction=unit,
        branches=profiles,
        line_bytes=st.sampled_from([16, 64, 256]),
        stream=st.lists(st.integers(0, 1 << 30), max_size=300),
    )
    @example(seed=0, mean_gap=0.0, write_fraction=0.0,
             branches=BranchProfile(density=0.0), line_bytes=64, stream=[1, 2, 3])
    @example(seed=1, mean_gap=3.0, write_fraction=1.0,
             branches=BranchProfile(density=1.0, random_fraction=0.0),
             line_bytes=64, stream=list(range(50)))
    @example(seed=2, mean_gap=5.0, write_fraction=0.3,
             branches=BranchProfile(density=1.5, random_fraction=1.0),
             line_bytes=64, stream=list(range(50)))
    @example(seed=3, mean_gap=0.0, write_fraction=0.5, branches=None,
             line_bytes=64, stream=[])
    @settings(max_examples=150, deadline=None)
    def test_build_equals_per_record_loop(
        self, seed, mean_gap, write_fraction, branches, line_bytes, stream
    ):
        builder = WorkloadBuilder(seed=seed, mean_gap=mean_gap,
                                  write_fraction=write_fraction,
                                  branches=branches, line_bytes=line_bytes)
        trace = builder.build("t", stream)
        assert (trace.name, list(trace)) == reference_build(builder, "t", stream)
        assert trace.kinds.dtype == np.int8
        assert trace.addresses.dtype == np.int64
        assert trace.gaps.dtype == np.int32


class TestBranchProfile:
    def test_defaults_valid(self):
        profile = BranchProfile()
        assert profile.density > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"density": -1},
            {"loop_bias": 1.5},
            {"random_fraction": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BranchProfile(**kwargs)


class TestBuilder:
    def test_memory_records_match_stream(self):
        builder = WorkloadBuilder(seed=1, write_fraction=0.0,
                                  branches=None)
        trace = builder.build("t", [0, 1, 2, 1, 0])
        addresses = [r[1] for r in trace.memory_records()]
        assert addresses == [
            DATA_SEGMENT_BASE + line * 64 for line in [0, 1, 2, 1, 0]
        ]

    def test_write_fraction_zero_and_one(self):
        all_loads = WorkloadBuilder(seed=2, write_fraction=0.0,
                                    branches=None).build("t", list(range(100)))
        assert all(r[0] == KIND_LOAD for r in all_loads.memory_records())
        all_stores = WorkloadBuilder(seed=2, write_fraction=1.0,
                                     branches=None).build("t", list(range(100)))
        assert all(r[0] == KIND_STORE for r in all_stores.memory_records())

    def test_write_fraction_approximate(self):
        builder = WorkloadBuilder(seed=3, write_fraction=0.3, branches=None)
        trace = builder.build("t", list(range(5000)))
        fraction = trace.store_count() / trace.memory_access_count()
        assert 0.25 < fraction < 0.35

    def test_mean_gap_approximate(self):
        builder = WorkloadBuilder(seed=4, mean_gap=5.0, branches=None)
        trace = builder.build("t", list(range(5000)))
        mean = sum(r[2] for r in trace) / len(trace)
        assert 4.0 < mean < 6.0

    def test_zero_gap(self):
        builder = WorkloadBuilder(seed=5, mean_gap=0.0, branches=None)
        trace = builder.build("t", list(range(100)))
        assert all(r[2] == 0 for r in trace)

    def test_branch_density(self):
        builder = WorkloadBuilder(
            seed=6, branches=BranchProfile(density=0.5)
        )
        trace = builder.build("t", list(range(10_000)))
        ratio = trace.branch_count() / trace.memory_access_count()
        assert 0.45 < ratio < 0.55

    def test_branch_pcs_in_code_segment(self):
        builder = WorkloadBuilder(seed=7, branches=BranchProfile(density=1.0))
        trace = builder.build("t", list(range(1000)))
        for kind, pc, _gap in trace:
            if kind < KIND_BRANCH_TAKEN:
                continue
            assert pc >= CODE_SEGMENT_BASE
            assert pc < DATA_SEGMENT_BASE

    def test_deterministic(self):
        stream = list(range(300))
        a = WorkloadBuilder(seed=8).build("t", stream)
        b = WorkloadBuilder(seed=8).build("t", stream)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        stream = list(range(300))
        a = WorkloadBuilder(seed=8).build("t", stream)
        b = WorkloadBuilder(seed=9).build("t", stream)
        assert list(a) != list(b)

    def test_instruction_count_consistency(self):
        builder = WorkloadBuilder(seed=10)
        trace = builder.build("t", list(range(500)))
        assert trace.instruction_count == \
            sum(r[2] for r in trace) + len(trace)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_gap": -1},
            {"write_fraction": 1.5},
            {"line_bytes": 100},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadBuilder(**kwargs)
