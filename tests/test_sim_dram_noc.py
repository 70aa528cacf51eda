"""Unit tests for the GDDR5 timing model and the NoC."""

import pytest

from repro.sim.config import gt240
from repro.sim.dram import DRAMChannel, DRAMSystem, refresh_operations
from repro.sim.noc import NoC


def make_channel():
    cfg = gt240()
    return DRAMChannel(cfg, 0, shader_cycles_per_dram_cycle=1.0), cfg


class TestDRAMChannel:
    def test_first_access_activates(self):
        ch, _ = make_channel()
        ch.access(0, now=0.0, is_write=False)
        assert ch.activates == 1 and ch.precharges == 0
        assert ch.reads == 1

    def test_row_hit_no_second_activate(self):
        ch, cfg = make_channel()
        ch.access(0, 0.0, False)
        ch.access(64, 0.0, False)  # same 2 KB row
        assert ch.activates == 1

    def test_row_miss_precharges(self):
        ch, cfg = make_channel()
        ch.access(0, 0.0, False)
        # Same bank, different row: + banks*row_bytes stride.
        ch.access(cfg.dram_banks * cfg.dram_row_bytes, 0.0, False)
        assert ch.activates == 2 and ch.precharges == 1

    def test_different_banks_interleave(self):
        ch, cfg = make_channel()
        ch.access(0, 0.0, False)
        ch.access(cfg.dram_row_bytes, 0.0, False)  # next bank
        assert ch.activates == 2 and ch.precharges == 0

    def test_row_hit_faster_than_miss(self):
        ch, cfg = make_channel()
        t_first = ch.access(0, 0.0, False)
        ch2, _ = make_channel()
        ch2.access(0, 0.0, False)
        t_hit = ch2.access(64, t_first, False)
        ch3, cfg3 = make_channel()
        ch3.access(0, 0.0, False)
        t_miss = ch3.access(cfg3.dram_banks * cfg3.dram_row_bytes,
                            t_first, False)
        assert t_hit - t_first < t_miss - t_first

    def test_bus_serialises_bursts(self):
        ch, _ = make_channel()
        t1 = ch.access(0, 0.0, False)
        t2 = ch.access(64, 0.0, False)
        assert t2 > t1

    def test_column_commands_pipeline(self):
        """Open-row accesses stream at tCCD, not tCAS (the bug the
        reproduction originally had: CAS paid serially per burst)."""
        ch, cfg = make_channel()
        ch.access(0, 0.0, False)
        times = [ch.access(64 * i, 0.0, False) for i in range(1, 10)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Streaming gap must be ~tCCD (2 cycles), far below tCAS (12).
        assert max(gaps) <= cfg.dram_t_ccd + 1

    def test_write_counted(self):
        ch, _ = make_channel()
        ch.access(0, 0.0, True)
        assert ch.writes == 1 and ch.reads == 0


class TestDRAMSystem:
    def test_channel_interleaving(self):
        cfg = gt240()
        sys = DRAMSystem(cfg, cfg.shader_clock_hz)
        a = sys.channel_for(0)
        b = sys.channel_for(cfg.l2_line)
        assert a is not b

    def test_refresh_count_scales_with_time(self):
        cfg = gt240()
        r1 = refresh_operations(cfg, 1e-3)
        r2 = refresh_operations(cfg, 2e-3)
        assert r2 == pytest.approx(2 * r1)
        # 1 ms / 7.8 us * 2 channels ~= 256
        assert r1 == pytest.approx(1e-3 / 7.8e-6 * 2)

    def test_aggregate_counters(self):
        cfg = gt240()
        sys = DRAMSystem(cfg, cfg.shader_clock_hz)
        for i in range(8):
            sys.access(i * 128, 0.0, is_write=(i % 2 == 0))
        assert sys.reads + sys.writes == 8


class TestNoC:
    def test_flit_segmentation(self):
        noc = NoC(gt240(), 0)
        assert noc.flits_for(32) == 2    # header + 1 data
        assert noc.flits_for(128) == 5   # header + 4 data
        assert noc.flits_for(1) == 2

    def test_send_counts_flits(self):
        noc = NoC(gt240(), 0)
        noc.send(0, 128, 0.0)
        assert noc.flits == 5 and noc.transfers == 1

    def test_port_contention_serialises(self):
        noc = NoC(gt240(), 0)
        t1 = noc.send(0, 128, 0.0)
        t2 = noc.send(0, 128, 0.0)   # same port, same time
        t3 = noc.send(1, 128, 0.0)   # other port unaffected
        assert t2 > t1
        assert t3 == t1

    def test_latency_positive(self):
        noc = NoC(gt240(), 0)
        assert noc.send(0, 8, 100.0) > 100.0
