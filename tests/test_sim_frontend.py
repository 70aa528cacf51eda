"""Unit tests for front-end structures: warps, scoreboard, instruction
buffer, execution unit pipelines, register file activity, WCU counts.

The core's issue slot does the structures' accounting, so most tests
drive a one-block core and read the counters it leaves behind."""

import numpy as np
import pytest

from repro.isa import Dim3, KernelBuilder, KernelLaunch, Reg
from repro.sim.config import gt240, gtx580
from repro.sim.core import Core, SimulationDeadlock
from repro.sim.exec_units import ExecutionUnits
from repro.sim.ibuffer import InstructionBuffer
from repro.sim.memsys import MemorySystem
from repro.sim.warp import Warp
from tests.conftest import build_tiny_core


def core_running(kernel, threads=32, **overrides):
    """A GT240-based core (config fields overridable) holding one block
    of ``threads`` threads of ``kernel``."""
    config = gt240().scaled(**overrides)
    core = Core(0, config, MemorySystem(config))
    launch = KernelLaunch(kernel, Dim3(1), Dim3(threads), gmem_words=4)
    core.prepare(kernel, launch, np.zeros(4), None)
    core.assign_block(0)
    return core


def run_dry(core, now=0.0):
    """Step ``core`` until it is idle."""
    while now is not None:
        now = core.step(now)


def scoreboard_core(**overrides):
    """``IADD r0, r1, r2; EXIT`` on one warp under a scoreboard."""
    kb = KernelBuilder("t")
    r = kb.regs(3)
    kb.iadd(r[0], r[1], r[2])
    kb.exit()
    overrides.setdefault("scoreboard_dst_per_warp", 4)
    return core_running(kb.build(), has_scoreboard=True, **overrides)


def fadd_kernel():
    kb = KernelBuilder("t")
    r = kb.regs(3)
    kb.fadd(r[0], r[1], r[2])
    kb.exit()
    return kb.build()


def setp_core(a, b, threads=32):
    """``SETP.LT p0, a, b; EXIT``: operand reads with no register
    written back."""
    kb = KernelBuilder("t")
    kb.regs(3)
    kb.setp("LT", kb.pred(), a, b)
    kb.exit()
    return core_running(kb.build(), threads=threads)


def make_warp(**kw):
    kb = KernelBuilder("t")
    r = kb.regs(4)
    kb.iadd(r[0], r[1], r[2])
    kernel = kb.build()
    specials = {"tid": np.arange(32, dtype=np.float64)}
    return Warp(0, 0, 0, kernel, specials, 32, **kw)


class TestWarp:
    """Warp state, and which warps the core lets issue (the ready set
    of :class:`repro.sim.core.Core` is the one home of that rule)."""

    def test_initial_issuable(self):
        core = build_tiny_core()
        assert core._ready == [0]
        core.step(0.0)
        assert core.issued == 1

    def test_blocked_until(self):
        core = build_tiny_core()
        warp, = core.warps
        warp.blocked_until = 10.0
        core._refresh_ready(5.0)
        assert core._ready == []
        assert core.step(5.0) == 10.0      # sleeps until it unblocks
        assert core.issued == 0
        core.step(10.0)
        assert core.issued == 1

    def test_done_not_issuable(self):
        core = build_tiny_core(n_warps=2)
        core.warps[0].done = True
        core._refresh_ready(0.0)
        assert core._ready == [1]

    def test_barrier_not_issuable(self):
        core = build_tiny_core()
        core.warps[0].at_barrier = True
        core._refresh_ready(0.0)
        assert core._ready == []
        with pytest.raises(SimulationDeadlock, match="barrier"):
            core.step(0.0)

    def test_scoreboard_limit_blocks(self):
        core = build_tiny_core(has_scoreboard=True,
                               scoreboard_dst_per_warp=2)
        warp, = core.warps
        warp.reserve(1)
        warp.reserve(2)
        core._schedule(4.0, warp, 1, is_mem=False)   # r1 writes back at 4
        assert core.step(0.0) == 4.0
        assert core.issued == 0
        assert core.stall_cycles["dependency"] == 4
        core.step(4.0)
        assert core.issued == 1
        # Barrel mode has no destination limit.
        barrel = build_tiny_core(has_scoreboard=False)
        barrel.warps[0].reserve(1)
        barrel.warps[0].reserve(2)
        barrel.step(0.0)
        assert barrel.issued == 1

    def test_hazard_detection(self):
        # IADD r0, r1, r2 against one pending write at a time.
        for reg, hazard in ((1, True),    # RAW
                            (0, True),    # WAW
                            (3, False)):
            core = scoreboard_core()
            warp, = core.warps
            warp.reserve(reg)
            core._schedule(4.0, warp, reg, is_mem=False)
            core.step(0.0)
            assert core.issued == (0 if hazard else 1)

    def test_release_refcounts(self):
        core = scoreboard_core()
        warp, = core.warps
        warp.reserve(2)
        warp.reserve(2)
        warp.release(2)
        core._schedule(4.0, warp, 2, is_mem=False)
        core.step(0.0)
        assert core.issued == 0          # one write still in flight
        warp.release(2)
        core.step(1.0)
        assert core.issued == 1

    def test_partial_initial_mask(self):
        mask = np.zeros(32, dtype=bool)
        mask[:10] = True
        w = make_warp(initial_mask=mask)
        assert w.active_mask.sum() == 10


class TestScoreboard:
    def test_counts_searches_and_writes(self):
        core = scoreboard_core()
        run_dry(core)
        sb = core.wcu.scoreboard
        assert sb.searches == 1   # the IADD; the EXIT (control) skips it
        assert sb.writes == 2     # reserve at issue, release at writeback

    def test_none_dst_not_counted(self):
        kb = KernelBuilder("t")
        r = kb.regs(2)
        kb.setp("LT", kb.pred(), r[0], r[1])
        kb.exit()
        core = core_running(kb.build(), has_scoreboard=True)
        run_dry(core)
        assert core.wcu.scoreboard.writes == 0   # predicate destination
        assert core.wcu.scoreboard.searches == 1

    def test_held_warp_counts_a_search_every_test(self):
        # IADD r0, r1, r2 waits on r1, written back at cycle 4: the
        # warp is tested again at every step, one search each time.
        core = scoreboard_core()
        warp, = core.warps
        warp.reserve(1)
        core._schedule(4.0, warp, 1, is_mem=False)
        sb = core.wcu.scoreboard
        for now, searches in ((0.0, 1), (1.0, 2), (2.0, 3)):
            assert core.step(now) == 4.0
            assert (core.issued, sb.searches) == (0, searches)
        core.step(4.0)   # the writeback frees it
        assert (core.issued, sb.searches) == (1, 4)

    def test_can_reserve_capacity(self):
        core = scoreboard_core(scoreboard_dst_per_warp=2)
        warp, = core.warps
        warp.reserve(5)
        warp.reserve(6)
        core._schedule(4.0, warp, 5, is_mem=False)
        core.step(0.0)
        assert core.issued == 0   # both slots taken
        assert core.wcu.scoreboard.searches == 0   # blocked before searching
        core.step(4.0)
        assert core.issued == 1
        assert core.wcu.scoreboard.searches == 1


class TestInstructionBuffer:
    def test_fill_and_issue(self):
        core = build_tiny_core()
        core.step(0.0)
        ib = core.wcu.ibuffer
        assert ib.writes == 1 and ib.searches == 1
        assert ib.occupancy[0] == 0   # the issue freed the slot again

    def test_capacity_enforced(self):
        core = build_tiny_core()
        ib = core.wcu.ibuffer
        ib.occupancy[0] = ib.slots_per_warp
        assert not ib.can_fetch(0)
        with pytest.raises(RuntimeError, match="overflow"):
            core.step(0.0)

    def test_flush(self):
        ib = InstructionBuffer(4, 2)
        ib.occupancy[1] = 2
        ib.flush(1)
        assert ib.can_fetch(1)
        assert ib.flushes == 2

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            InstructionBuffer(4, 0)


class TestExecutionUnits:
    def test_gt240_occupancies(self):
        eu = ExecutionUnits(gt240())
        assert eu.groups["int"].occupancy == 4   # 32 threads / 8 lanes
        assert eu.groups["fp"].occupancy == 4
        assert eu.groups["sfu"].occupancy == 16  # 32 / 2 SFUs

    def test_gtx580_single_cycle_fp(self):
        eu = ExecutionUnits(gtx580())
        assert eu.groups["fp"].occupancy == 1

    def test_issue_blocks_group(self):
        core = core_running(fadd_kernel(), threads=64)   # two warps
        core.step(0.0)
        groups = core.exec_units.groups
        assert groups["fp"].free_at == 4.0   # next fp entry at cycle 4
        assert groups["int"].free_at == 0.0  # other groups independent
        assert core.step(1.0) == 4.0         # warp 1 waits for the unit
        assert core.stall_cycles["unit_busy"] == 3
        core.step(4.0)
        assert core.issued == 2

    def test_issue_while_busy_raises(self):
        core = core_running(fadd_kernel())
        core.exec_units.groups["fp"].free_at = 10.0
        warp, = core.warps
        with pytest.raises(RuntimeError, match="busy"):
            core._issue(warp, 0, core._table[0], 1.0)

    def test_completion_after_latency(self):
        cfg = gt240()
        core = core_running(fadd_kernel())
        core.step(0.0)
        done = cfg.fu_cycles_per_warp + cfg.alu_latency_cycles
        assert core._events[0][0] == done     # writeback event
        assert core.warps[0].blocked_until == done   # barrel: no scoreboard

    def test_lane_op_accounting(self):
        kb = KernelBuilder("t")
        r = kb.regs(2)
        kb.iadd(r[0], r[1], 1)
        kb.exit()
        core = core_running(kb.build(), threads=17)
        core.step(0.0)
        assert core.exec_units.lane_ops("int") == 17


class TestRegisterFile:
    def test_full_warp_operand_banks(self):
        core = setp_core(Reg(1), Reg(2))
        core.step(0.0)
        rf = core.regfile
        assert rf.operand_reads == 2
        assert rf.bank_accesses == 16  # 2 operands x 8 bank beats
        assert rf.collector_writes == 2

    def test_narrow_access_fewer_banks(self):
        core = setp_core(Reg(1), 0.0, threads=4)
        core.step(0.0)
        assert core.regfile.bank_accesses == 1

    def test_write_result(self):
        kb = KernelBuilder("t")
        r = kb.regs(1)
        kb.mov(r[0], 1.0)
        kb.exit()
        core = core_running(kb.build())
        core.step(0.0)
        rf = core.regfile
        assert rf.operand_writes == 1
        assert rf.bank_accesses == 8

    def test_zero_operands_free(self):
        core = setp_core(1.0, 2.0)
        core.step(0.0)
        assert core.regfile.operand_reads == 0
        assert core.regfile.bank_accesses == 0

    def test_collector_dispatch(self):
        core = setp_core(Reg(1), Reg(2))
        core.step(0.0)
        assert core.regfile.collector_reads == 1


class TestWCU:
    def test_account_issue_touches_structures(self):
        core = build_tiny_core()
        core.step(0.0)
        wcu = core.wcu
        assert wcu.fetches == 1
        assert wcu.decodes == 1
        assert wcu.wst_reads == 2
        assert wcu.wst_writes == 1
        assert wcu.ibuffer.writes == 1
        assert wcu.ibuffer.searches == 1
        assert wcu.icache.reads == 1

    def test_icache_locality(self):
        kb = KernelBuilder("t")
        r = kb.regs(1)
        for _ in range(7):
            kb.iadd(r[0], r[0], 1)
        kb.exit()
        core = core_running(kb.build(), has_scoreboard=True)
        run_dry(core)
        assert core.issued == 8
        # 8 instructions x 8 bytes = one 64-byte line: one cold miss.
        assert core.wcu.icache.misses == 1

    def test_schedule_cycle_counter(self):
        core = build_tiny_core()
        core.step(0.0)
        core.step(1.0)
        wcu = core.wcu
        assert wcu.fetch_scheduler_ops == 2
        assert wcu.issue_scheduler_ops == 2
