"""Unit tests for front-end structures: warps, scoreboard, instruction
buffer, execution unit pipelines, register file activity, WCU counts."""

import numpy as np
import pytest

from repro.isa import KernelBuilder
from repro.sim.config import gt240, gtx580
from repro.sim.core import SimulationDeadlock
from repro.sim.exec_units import ExecutionUnits
from repro.sim.ibuffer import InstructionBuffer
from repro.sim.regfile import RegisterFile
from repro.sim.scoreboard import Scoreboard
from repro.sim.warp import Warp
from repro.sim.wcu import WarpControlUnit
from tests.conftest import build_tiny_core


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
        sb = Scoreboard(True, 4)
        w = make_warp()
        w.reserve(3)
        assert sb.blocks(w, (3,), None)          # RAW
        assert sb.blocks(w, (), 3)               # WAW
        assert not sb.blocks(w, (1, 2), 4)

    def test_release_refcounts(self):
        sb = Scoreboard(True, 4)
        w = make_warp()
        w.reserve(3)
        w.reserve(3)
        w.release(3)
        assert sb.blocks(w, (3,), None)
        w.release(3)
        assert not sb.blocks(w, (3,), None)

    def test_partial_initial_mask(self):
        mask = np.zeros(32, dtype=bool)
        mask[:10] = True
        w = make_warp(initial_mask=mask)
        assert w.active_mask.sum() == 10


class TestScoreboard:
    def test_counts_searches_and_writes(self):
        sb = Scoreboard(True, 2)
        w = make_warp()
        sb.reserve(w, 1)
        assert sb.writes == 1
        assert sb.blocks(w, (1,), None)
        assert sb.searches == 1
        assert not sb.blocks(w, (), None, search=False)   # control op
        assert sb.searches == 1
        sb.release(w, 1)
        assert sb.writes == 2

    def test_none_dst_not_counted(self):
        sb = Scoreboard(True, 2)
        w = make_warp()
        sb.reserve(w, None)
        assert sb.writes == 0

    def test_can_reserve_capacity(self):
        sb = Scoreboard(True, 2)
        w = make_warp()
        sb.reserve(w, 1)
        assert not sb.blocks(w, (), None, search=False)
        sb.reserve(w, 2)
        assert sb.blocks(w, (), None, search=False)   # both slots taken
        assert sb.searches == 0   # a full table blocks before searching


class TestInstructionBuffer:
    def test_fill_and_issue(self):
        ib = InstructionBuffer(4, 2)
        ib.fill(0)
        ib.issue(0)
        assert ib.writes == 1 and ib.searches == 1

    def test_capacity_enforced(self):
        ib = InstructionBuffer(4, 2)
        ib.fill(0)
        ib.fill(0)
        assert not ib.can_fetch(0)
        with pytest.raises(RuntimeError):
            ib.fill(0)

    def test_issue_from_empty_raises(self):
        ib = InstructionBuffer(4, 2)
        with pytest.raises(RuntimeError):
            ib.issue(0)

    def test_flush(self):
        ib = InstructionBuffer(4, 2)
        ib.fill(1)
        ib.fill(1)
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
        eu = ExecutionUnits(gt240())
        eu.issue("fp", 0.0, 32)
        assert eu.groups["fp"].free_at == 4.0   # next fp entry at cycle 4
        assert eu.groups["int"].free_at == 0.0  # other groups independent
        eu.issue("fp", 4.0, 32)

    def test_issue_while_busy_raises(self):
        eu = ExecutionUnits(gt240())
        eu.issue("fp", 0.0, 32)
        with pytest.raises(RuntimeError):
            eu.issue("fp", 1.0, 32)

    def test_completion_after_latency(self):
        cfg = gt240()
        eu = ExecutionUnits(cfg)
        done = eu.issue("fp", 0.0, 32)
        assert done == cfg.fu_cycles_per_warp + cfg.alu_latency_cycles

    def test_lane_op_accounting(self):
        eu = ExecutionUnits(gt240())
        eu.issue("int", 0.0, 17)
        assert eu.lane_ops("int") == 17


class TestRegisterFile:
    def test_full_warp_operand_banks(self):
        rf = RegisterFile(gt240())
        cycles = rf.read_operands(2, 32)
        assert rf.operand_reads == 2
        assert rf.bank_accesses == 16  # 2 operands x 8 bank beats
        assert cycles >= 1

    def test_narrow_access_fewer_banks(self):
        rf = RegisterFile(gt240())
        rf.read_operands(1, 4)
        assert rf.bank_accesses == 1

    def test_write_result(self):
        rf = RegisterFile(gt240())
        rf.write_result(32)
        assert rf.operand_writes == 1
        assert rf.bank_accesses == 8

    def test_zero_operands_free(self):
        rf = RegisterFile(gt240())
        assert rf.read_operands(0, 32) == 0
        assert rf.bank_accesses == 0

    def test_collector_dispatch(self):
        rf = RegisterFile(gt240())
        rf.dispatch()
        assert rf.collector_reads == 1


class TestWCU:
    def test_account_issue_touches_structures(self):
        wcu = WarpControlUnit(gt240())
        wcu.account_issue(0, pc=0)
        assert wcu.fetches == 1
        assert wcu.decodes == 1
        assert wcu.wst_reads == 2
        assert wcu.wst_writes == 1
        assert wcu.ibuffer.writes == 1
        assert wcu.ibuffer.searches == 1
        assert wcu.icache.reads == 1

    def test_icache_locality(self):
        wcu = WarpControlUnit(gt240())
        for pc in range(8):
            wcu.account_issue(0, pc)
        # 8 instructions x 8 bytes = one 64-byte line: one cold miss.
        assert wcu.icache.misses == 1

    def test_schedule_cycle_counter(self):
        wcu = WarpControlUnit(gt240())
        wcu.account_schedule_cycle()
        wcu.account_schedule_cycle()
        assert wcu.fetch_scheduler_ops == 2
        assert wcu.issue_scheduler_ops == 2
