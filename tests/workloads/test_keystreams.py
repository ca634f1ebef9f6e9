"""Unit tests for the key-stream generators (online-engine workloads)."""

from itertools import islice

import pytest

from repro.cache.config import CacheConfig
from repro.workloads.keystreams import (
    keys_from_trace,
    loop_keys,
    phase_change_keys,
    scan_keys,
    zipf_keys,
)
from repro.workloads.suite import build_workload


class TestGenerators:
    def test_lengths(self):
        assert len(zipf_keys(100, 500)) == 500
        assert len(loop_keys(10, 35)) == 35
        assert len(scan_keys(20, 200, 300)) == 300
        assert len(phase_change_keys(50, 12, 400, phases=4)) == 400

    def test_deterministic_given_seed(self):
        assert zipf_keys(100, 200, seed=7) == zipf_keys(100, 200, seed=7)
        assert scan_keys(10, 50, 100, seed=3) == scan_keys(10, 50, 100, seed=3)
        assert zipf_keys(100, 200, seed=7) != zipf_keys(100, 200, seed=8)

    def test_keys_are_prefixed_strings(self):
        assert all(k.startswith("z:") for k in zipf_keys(50, 100))
        assert all(k.startswith("loop:") for k in loop_keys(5, 20))

    def test_prefixes_namespace_universes(self):
        a = set(zipf_keys(50, 200, prefix="a"))
        b = set(zipf_keys(50, 200, prefix="b"))
        assert not (a & b)

    def test_loop_cycles(self):
        keys = loop_keys(3, 7)
        assert keys == [keys[0], keys[1], keys[2]] * 2 + [keys[0]]

    def test_zipf_is_skewed(self):
        keys = zipf_keys(1000, 5000, seed=0)
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        top = sorted(counts.values(), reverse=True)[:10]
        # The 10 hottest keys dominate: that is the point of Zipf.
        assert sum(top) > 0.3 * len(keys)

    def test_phase_change_alternates_universes(self):
        keys = phase_change_keys(40, 12, 400, phases=4)
        prefixes = {k.rsplit(":", 1)[0] for k in keys}
        assert prefixes == {"p-hot", "p-loop"}
        # First quarter is Zipf (hot), second quarter is loop.
        assert all(k.startswith("p-hot:") for k in keys[:100])
        assert all(k.startswith("p-loop:") for k in keys[100:200])

    def test_phase_change_validates(self):
        with pytest.raises(ValueError, match="phases"):
            phase_change_keys(10, 5, 100, phases=0)

    def test_exact_truncation(self):
        # accesses not divisible by phases still yields exactly accesses.
        assert len(phase_change_keys(50, 12, 401, phases=4)) == 401


class TestTraceBridge:
    def test_trace_replay_matches_block_structure(self):
        config = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)
        trace = build_workload("ammp", config, accesses=800)
        keys = keys_from_trace(trace)
        blocks = trace.block_addresses(64)
        assert len(keys) == len(blocks)
        assert keys == [f"blk:{b}" for b in blocks]

    def test_distinct_lines_distinct_keys(self):
        config = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)
        trace = build_workload("mcf", config, accesses=500)
        keys = keys_from_trace(trace)
        assert len(set(keys)) == len(set(trace.block_addresses(64)))


class TestOpenLoopSpecs:
    def test_spec_validates_mix_and_process(self):
        from repro.workloads.keystreams import StreamSpec

        with pytest.raises(ValueError, match="YCSB mix"):
            StreamSpec(mix="Z")
        with pytest.raises(ValueError, match="arrival process"):
            StreamSpec(process="uniform")

    def test_arrival_generators_validate(self):
        from repro.workloads.keystreams import (
            ZipfSampler,
            beta_client_weights,
            mmpp_arrivals,
            poisson_arrivals,
        )

        with pytest.raises(ValueError, match="rate"):
            next(poisson_arrivals(0.0))
        with pytest.raises(ValueError, match="rates"):
            next(mmpp_arrivals(0.0, 10.0))
        with pytest.raises(ValueError, match="dwell"):
            next(mmpp_arrivals(10.0, 40.0, mean_dwell=0.0))
        with pytest.raises(ValueError, match="universe"):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            ZipfSampler(10, -0.5)
        with pytest.raises(ValueError, match="clients"):
            beta_client_weights(0, 2.0, 5.0, seed=0)

    def test_universe_and_skew_are_fixed(self):
        from repro.workloads.keystreams import StreamSpec

        with pytest.raises(TypeError):
            StreamSpec(universe=64)
        ranks = {int(r.key.partition(":")[2])
                 for r in islice(StreamSpec(rate=100.0, seed=1).requests(),
                                 3000)}
        assert max(ranks) < StreamSpec.universe == 512
        assert len(ranks) > 100

    def test_insert_keys_are_fresh_and_sequential(self):
        from repro.workloads.keystreams import StreamSpec

        spec = StreamSpec(rate=500.0, mix="D", seed=2)
        inserts = [r for r in islice(spec.requests(), 2000)
                   if r.op == "insert"]
        assert inserts
        assert [r.key for r in inserts] == [
            f"r:new:{i}" for i in range(len(inserts))
        ]
