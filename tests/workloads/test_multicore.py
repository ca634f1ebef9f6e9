"""Unit tests for shared-cache workload mixes."""

import hashlib
import json

import pytest

from repro.cache.config import CacheConfig
from repro.workloads.multicore import (
    CORE_ADDRESS_STRIDE,
    build_shared_workload,
    interleave_traces,
    offset_core_records,
)
from repro.workloads.trace import (
    KIND_BRANCH_TAKEN,
    KIND_LOAD,
    KIND_STORE,
    Trace,
)


@pytest.fixture(scope="module")
def mc_config():
    return CacheConfig(size_bytes=8 * 1024, ways=8, line_bytes=64)


class TestOffsetting:
    def test_memory_addresses_rebased(self):
        trace = Trace.from_records("t", [(KIND_LOAD, 0x1000, 2), (KIND_STORE, 0x2000, 0)])
        rebased = list(offset_core_records(trace, core=2))
        assert rebased[0][1] == 0x1000 + 2 * CORE_ADDRESS_STRIDE
        assert rebased[1][1] == 0x2000 + 2 * CORE_ADDRESS_STRIDE

    def test_core_zero_unchanged(self):
        trace = Trace.from_records("t", [(KIND_LOAD, 0x1000, 2)])
        assert list(offset_core_records(trace, core=0)) == list(trace)

    def test_branch_pcs_untouched(self):
        trace = Trace.from_records("t", [(KIND_BRANCH_TAKEN, 0x400000, 1)])
        assert list(offset_core_records(trace, core=3)) == list(trace)

    def test_offset_preserves_set_index(self, mc_config):
        address = 0x1234 & ~(mc_config.line_bytes - 1)
        trace = Trace.from_records("t", [(KIND_LOAD, address, 0)])
        rebased = offset_core_records(trace, core=1)
        assert mc_config.set_index(int(rebased.addresses[0])) == \
            mc_config.set_index(address)

    def test_negative_core_rejected(self):
        with pytest.raises(ValueError):
            offset_core_records(Trace("empty"), core=-1)


class TestInterleave:
    def _trace(self, name, base, n):
        return Trace.from_records(name, [(KIND_LOAD, base + i * 64, 1) for i in range(n)])

    def test_all_records_kept(self):
        merged = interleave_traces(
            [self._trace("a", 0, 50), self._trace("b", 0x9000, 70)]
        )
        assert len(merged) == 120
        assert merged.name == "a+b"

    def test_per_core_order_preserved(self):
        merged = interleave_traces(
            [self._trace("a", 0, 40), self._trace("b", 0x9000, 40)]
        )
        core0 = [r[1] for r in merged if r[1] < CORE_ADDRESS_STRIDE]
        assert core0 == sorted(core0)
        core1 = [r[1] for r in merged if r[1] >= CORE_ADDRESS_STRIDE]
        assert core1 == sorted(core1)

    def test_cores_actually_interleave(self):
        merged = interleave_traces(
            [self._trace("a", 0, 100), self._trace("b", 0x9000, 100)]
        )
        first_half_cores = {
            int(address) >= CORE_ADDRESS_STRIDE for address in merged.addresses[:50]
        }
        assert first_half_cores == {True, False}

    def test_deterministic(self):
        traces = [self._trace("a", 0, 30), self._trace("b", 0x9000, 30)]
        assert list(interleave_traces(traces)) == list(interleave_traces(traces))

    def test_seeded_two_core_digest_pinned(self):
        """The merged order, record for record, is pinned: a change to
        how records are drawn or stored must not move it."""
        config = CacheConfig(size_bytes=64 * 1024, ways=8, line_bytes=64, hit_latency=15)
        trace = build_shared_workload(("lucas", "mcf"), config, accesses_per_core=3000)
        rows = [list(record) for record in trace]
        assert len(rows) == 10044
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "261aac10a18b89e99c24c48edcf741b1493cf35d1a105a970087a77a33fc5c63"
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interleave_traces([])


class TestBuildShared:
    def test_shared_workload_builds(self, mc_config):
        trace = build_shared_workload(
            ("lucas", "tiff2rgba"), mc_config, accesses_per_core=1500
        )
        assert trace.memory_access_count() == 3000
        assert trace.name == "lucas+tiff2rgba"

    def test_address_spaces_disjoint(self, mc_config):
        trace = build_shared_workload(
            ("lucas", "tiff2rgba"), mc_config, accesses_per_core=1000
        )
        cores = {r[1] // CORE_ADDRESS_STRIDE for r in trace.memory_records()}
        assert cores == {0, 1}

    def test_same_program_twice_distinct_samples(self, mc_config):
        """Two cores of the same program use different seed offsets, so
        the mix is not a lockstep duplicate."""
        trace = build_shared_workload(
            ("mcf", "mcf"), mc_config, accesses_per_core=800
        )
        core0 = [r[1] for r in trace.memory_records()
                 if r[1] < CORE_ADDRESS_STRIDE]
        core1 = [r[1] - CORE_ADDRESS_STRIDE for r in trace.memory_records()
                 if r[1] >= CORE_ADDRESS_STRIDE]
        assert core0 != core1
