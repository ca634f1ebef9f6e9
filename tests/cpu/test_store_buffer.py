"""Unit tests for the finite store buffer."""

import pytest

from repro.cpu.store_buffer import StoreBuffer


class TestBasics:
    def test_free_entry_no_stall(self):
        buffer = StoreBuffer(2)
        assert buffer.push(now=0.0, latency=100.0) == 0.0
        assert buffer.push(now=1.0, latency=100.0) == 1.0
        assert buffer.stalls == 0

    def test_full_buffer_stalls_until_oldest_parallel(self):
        buffer = StoreBuffer(2)
        buffer.push(now=0.0, latency=100.0)  # completes at 100
        buffer.push(now=1.0, latency=50.0)  # completes at 51
        resumed = buffer.push(now=2.0, latency=10.0)
        assert resumed == pytest.approx(51.0)
        assert buffer.stalls == 1
        assert buffer.stall_cycles == pytest.approx(49.0)

    def test_drained_entries_free_slots(self):
        buffer = StoreBuffer(1)
        buffer.push(now=0.0, latency=10.0)
        # By t=20 the entry drained; no stall.
        assert buffer.push(now=20.0, latency=10.0) == 20.0
        assert buffer.stalls == 0

    def test_occupancy(self):
        buffer = StoreBuffer(4)
        buffer.push(now=0.0, latency=10.0)
        buffer.push(now=0.0, latency=20.0)
        assert buffer.occupancy(5.0) == 2
        assert buffer.occupancy(15.0) == 1
        assert buffer.occupancy(25.0) == 0


class TestWriteCombining:
    def test_same_line_combines(self):
        buffer = StoreBuffer(1)
        buffer.push(now=0.0, latency=100.0, line=7)
        # A second write to line 7 while in flight: no stall, no entry.
        assert buffer.push(now=1.0, latency=100.0, line=7) == 1.0
        assert buffer.combines == 1
        assert buffer.occupancy(2.0) == 1

    def test_different_lines_do_not_combine(self):
        buffer = StoreBuffer(1)
        buffer.push(now=0.0, latency=100.0, line=7)
        resumed = buffer.push(now=1.0, latency=100.0, line=8)
        assert resumed == pytest.approx(100.0)
        assert buffer.combines == 0

    def test_anonymous_writes_never_combine(self):
        buffer = StoreBuffer(2)
        buffer.push(now=0.0, latency=100.0)
        buffer.push(now=0.0, latency=100.0)
        assert buffer.combines == 0
        assert buffer.occupancy(1.0) == 2


class TestCapacityEffect:
    def test_bigger_buffer_fewer_stall_cycles(self):
        """The mechanism behind Figure 10: identical write bursts stall
        less with more entries."""

        def total_stall(capacity):
            buffer = StoreBuffer(capacity)
            now = 0.0
            for i in range(100):
                now += 1.0
                now = buffer.push(now, latency=50.0, line=i)
            return buffer.stall_cycles

        stalls = [total_stall(c) for c in (2, 4, 16, 64)]
        assert stalls[0] > stalls[1] > stalls[2] >= stalls[3]
        # The write channel is oversubscribed (one store per cycle, 50
        # cycles each), so even a big buffer eventually backs up — but
        # far less than a small one.
        assert stalls[3] < 0.5 * stalls[0]


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            StoreBuffer(0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            StoreBuffer(1).push(0.0, -1.0)
