"""Unit tests for ProcessorConfig (Table 1)."""

import pytest

from repro.cache.config import CacheConfig
from repro.cpu.config import ProcessorConfig


class TestTable1Defaults:
    def test_core(self):
        config = ProcessorConfig()
        assert config.issue_width == 8
        assert config.rs_entries == 32
        assert config.rob_entries == 64

    def test_caches(self):
        config = ProcessorConfig()
        assert config.l1d.size_bytes == 16 * 1024
        assert config.l1d.ways == 4
        assert config.l1d.hit_latency == 2
        assert config.l2.size_bytes == 512 * 1024
        assert config.l2.ways == 8
        assert config.l2.hit_latency == 15

    def test_store_buffer(self):
        assert ProcessorConfig().store_buffer_entries == 4

    def test_bus_transfer(self):
        # 64-byte line over an 8-byte bus at an 8:1 ratio = 64 cycles.
        config = ProcessorConfig()
        assert config.bus_transfer_cycles == 64
        assert config.miss_penalty == 120 + 64


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"issue_width": 0},
            {"base_ipc": 0},
            {"store_buffer_entries": 0},
            {"memory_latency": 0},
            {"mshr_entries": 0},
            {"l2_hit_stall_factor": 1.5},
            {"rob_entries": 0},
            {"base_ipc": -1.0},
            {"bus_bytes": 0},
            {"bus_ratio": 0},
            {"l2_hit_stall_factor": -0.1},
        ],
    )
    def test_rejected(self, overrides):
        with pytest.raises(ValueError):
            ProcessorConfig(**overrides)

    @pytest.mark.parametrize("name", ["l1d", "l1i"])
    def test_l1_line_size_must_match_l2(self, name):
        l1 = CacheConfig(size_bytes=16 * 1024, ways=4, line_bytes=128,
                         hit_latency=2)
        l2 = CacheConfig(size_bytes=512 * 1024, ways=8, line_bytes=64,
                         hit_latency=15)
        with pytest.raises(ValueError, match=f"{name} block size 128"):
            ProcessorConfig(l2=l2, **{name: l1})

    @pytest.mark.parametrize("name", ["l1d", "l1i"])
    def test_smaller_l1_line_rejected(self, name):
        # A 32-byte L1 victim would be written back as half an L2 line.
        l1 = CacheConfig(size_bytes=16 * 1024, ways=4, line_bytes=32,
                         hit_latency=2)
        with pytest.raises(ValueError, match=f"{name} block size 32"):
            ProcessorConfig(**{name: l1})

    def test_scaled(self):
        config = ProcessorConfig().scaled(store_buffer_entries=64)
        assert config.store_buffer_entries == 64
        assert config.rob_entries == 64
