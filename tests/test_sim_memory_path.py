"""Unit tests for the memory path: AGU, coalescer, shared memory banks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.agu import AGU
from repro.sim.coalescer import Coalescer
from repro.sim.config import gt240
from repro.sim.smem import SharedMemory


class TestAGU:
    def test_full_warp_occupancy(self):
        agu = AGU(gt240())
        # 32 addresses over 4 sub-AGUs of width 8 -> 1 cycle, 4 activations
        assert agu.generate(32) == 1
        assert agu.sub_agu_ops == 4

    def test_partial_warp(self):
        agu = AGU(gt240())
        assert agu.generate(9) == 1
        assert agu.sub_agu_ops == 2  # ceil(9/8)

    def test_zero_addresses_free(self):
        agu = AGU(gt240())
        assert agu.generate(0) == 0
        assert agu.sub_agu_ops == 0 and agu.instructions == 0

    def test_wide_access_multiple_cycles(self):
        agu = AGU(gt240().scaled(warp_size=32))
        # 64 addresses (e.g. 64B vectors) -> 8 activations over 4 SAGUs
        assert agu.generate(64) == 2


class TestCoalescer:
    def make(self, **over):
        return Coalescer(gt240().scaled(**over))

    def test_fully_coalesced_single_transaction(self):
        c = self.make()
        words = np.arange(32)  # 128 consecutive bytes, aligned
        txns = c.coalesce(words)
        assert len(txns) == 1
        assert txns[0] == (0, 128)

    def test_strided_access_degenerates(self):
        c = self.make()
        words = np.arange(32) * 32  # one segment per lane
        assert len(c.coalesce(words)) == 32

    def test_unaligned_spans_two_segments(self):
        c = self.make()
        words = np.arange(32) + 16
        assert len(c.coalesce(words)) == 2

    def test_same_address_broadcast(self):
        c = self.make()
        words = np.zeros(32, dtype=np.int64)
        assert len(c.coalesce(words)) == 1

    def test_empty_access(self):
        c = self.make()
        assert c.coalesce(np.array([], dtype=np.int64)) == []
        assert c.accesses == 0

    def test_counters(self):
        c = self.make()
        c.coalesce(np.arange(32))
        assert c.accesses == 1
        assert c.transactions == 1
        assert c.prt_writes == 1
        assert c.addresses == 32

    def test_efficiency(self):
        c = self.make()
        c.coalesce(np.arange(32))
        assert c.efficiency() == 32.0

    def test_segment_size_respected(self):
        c = self.make(coalesce_segment_bytes=32)
        txns = c.coalesce(np.arange(32))
        assert len(txns) == 4
        assert all(size == 32 for _, size in txns)

    def test_coalescing_disabled(self):
        c = self.make(coalescing_enabled=False)
        txns = c.coalesce(np.arange(32))
        assert len(txns) == 4  # 128 bytes in 32-byte pieces
        assert all(size == 32 for _, size in txns)

    @given(addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_transactions_cover_all_addresses(self, addrs):
        c = self.make()
        words = np.array(addrs, dtype=np.int64)
        txns = c.coalesce(words)
        for a in addrs:
            assert any(base <= a * 4 < base + size for base, size in txns)

    @given(addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_never_more_transactions_than_lanes(self, addrs):
        c = self.make()
        txns = c.coalesce(np.array(addrs, dtype=np.int64))
        assert 1 <= len(txns) <= len(addrs)


class TestSharedMemory:
    def make(self):
        return SharedMemory(gt240())  # 16 banks

    def test_unit_stride_two_half_warp_phases(self):
        s = self.make()
        # 32 unit-stride addresses over 16 banks: each bank serves two
        # different words -> two phases (the half-warp cadence of GT200).
        assert s.access(np.arange(32)) == 2
        assert s.conflict_phases == 1

    def test_unit_stride_conflict_free_on_32_banks(self):
        from repro.sim.config import gtx580
        s = SharedMemory(gtx580())  # 32 banks
        assert s.access(np.arange(32)) == 1
        assert s.conflict_phases == 0

    def test_four_way_conflict_stride_2(self):
        s = self.make()
        # stride 2 over 16 banks: only even banks hit, 4 words each.
        assert s.access(np.arange(32) * 2) == 4

    def test_worst_case_same_bank(self):
        s = self.make()
        # stride 16 = bank count: all 32 addresses in one bank
        assert s.access(np.arange(32) * 16) == 32

    def test_broadcast_single_address(self):
        s = self.make()
        assert s.access(np.zeros(32, dtype=np.int64)) == 1
        assert s.bank_accesses == 1  # one physical read, broadcast

    def test_empty(self):
        s = self.make()
        assert s.access(np.array([], dtype=np.int64)) == 0

    def test_counters(self):
        s = self.make()
        s.access(np.arange(32) * 2)
        assert s.conflict_checks == 1
        assert s.bank_accesses == 32
        assert s.conflict_phases == 3
        assert s.xbar_transfers == 32

    @given(addrs=st.lists(st.integers(0, 4095), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_phase_bounds(self, addrs):
        s = self.make()
        phases = s.access(np.array(addrs, dtype=np.int64))
        distinct = len(set(addrs))
        assert 1 <= phases <= distinct
