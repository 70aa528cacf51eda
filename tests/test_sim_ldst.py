"""Direct unit tests for the load/store unit (Fig. 3 path)."""

import numpy as np
import pytest

from repro.isa.instructions import Instruction, Reg
from repro.sim.config import gt240, gtx580
from repro.sim.functional import WarpContext
from repro.sim.ldst import LoadStoreUnit
from repro.sim.memsys import MemorySystem

WARP = 32


def make_unit(cfg=None, gmem_words=4096, cmem=None):
    cfg = cfg or gt240()
    memsys = MemorySystem(cfg)
    gmem = np.arange(gmem_words, dtype=np.float64)
    return LoadStoreUnit(cfg, memsys, gmem, cmem), gmem


def make_ctx(n_regs=4):
    specials = {"tid": np.arange(WARP, dtype=np.float64)}
    return WarpContext(n_regs, 1, specials, WARP)


def full_mask():
    return np.ones(WARP, dtype=bool)


def smem_array(words=64):
    return np.zeros(words, dtype=np.float64)


class TestGlobalLoads:
    def test_coalesced_load_values_and_counts(self):
        unit, gmem = make_unit()
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        inst = Instruction("LDG", Reg(0), (Reg(1),), offset=96)
        done = unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)
        assert done > 0
        assert np.array_equal(ctx.regs[0], gmem[96:96 + WARP])
        # 32 consecutive words starting on a segment boundary: 1 txn.
        assert unit.coalescer.transactions == 1
        assert unit.agu.sub_agu_ops == 4

    def test_strided_load_many_transactions(self):
        unit, _ = make_unit()
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64) * 64
        inst = Instruction("LDG", Reg(0), (Reg(1),))
        unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)
        # 64-word (256 B) stride: every lane hits its own 128 B segment.
        assert unit.coalescer.transactions == WARP

    def test_masked_lanes_untouched(self):
        unit, _ = make_unit()
        ctx = make_ctx()
        ctx.regs[0][:] = -1.0
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        mask = full_mask()
        mask[16:] = False
        inst = Instruction("LDG", Reg(0), (Reg(1),))
        unit.execute(inst, ctx, mask, smem_array(), now=0.0)
        assert (ctx.regs[0][16:] == -1.0).all()
        assert (ctx.regs[0][:16] == np.arange(16)).all()

    def test_out_of_bounds_clear_error(self):
        unit, _ = make_unit(gmem_words=64)
        ctx = make_ctx()
        ctx.regs[1] = np.full(WARP, 1000.0)
        inst = Instruction("LDG", Reg(0), (Reg(1),))
        with pytest.raises(IndexError, match="gmem_words"):
            unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)

    def test_busy_until_blocks_next(self):
        unit, _ = make_unit()
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        inst = Instruction("LDG", Reg(0), (Reg(1),))
        unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)
        assert unit.busy_until > 0.0
        with pytest.raises(RuntimeError, match="busy"):
            unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)


class TestGlobalStores:
    def test_store_writes_and_returns_fast(self):
        unit, gmem = make_unit()
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        ctx.regs[2] = np.full(WARP, 7.5)
        inst = Instruction("STG", None, (Reg(1), Reg(2)), offset=200)
        done = unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)
        assert (gmem[200:200 + WARP] == 7.5).all()
        # Fire-and-forget through the store buffer: the warp's dependence
        # clears long before the DRAM round trip.
        assert done <= 10.0
        assert unit.memsys.dram.writes > 0


class TestL1Behaviour:
    def test_l1_hit_fast_path(self):
        cfg = gtx580()
        unit, _ = make_unit(cfg)
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        inst = Instruction("LDG", Reg(0), (Reg(1),))
        t_miss = unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)
        t_hit = unit.execute(inst, ctx, full_mask(), smem_array(),
                             now=10_000.0) - 10_000.0
        assert t_hit < t_miss
        assert unit.l1.misses == 1 and unit.l1.reads == 2

    def test_gt240_has_no_l1(self):
        unit, _ = make_unit(gt240())
        assert unit.l1 is None


class TestConstantPath:
    def test_equality_rule_single_request(self):
        cmem = np.arange(16, dtype=np.float64)
        unit, _ = make_unit(cmem=cmem)
        ctx = make_ctx()
        ctx.regs[1] = np.zeros(WARP)  # all lanes read the same word
        inst = Instruction("LDC", Reg(0), (Reg(1),), offset=3)
        unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)
        assert unit.const_requests == 1
        assert (ctx.regs[0] == 3.0).all()

    def test_divergent_addresses_multiple_requests(self):
        cmem = np.arange(64, dtype=np.float64)
        unit, _ = make_unit(cmem=cmem)
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        inst = Instruction("LDC", Reg(0), (Reg(1),))
        unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)
        assert unit.const_requests == WARP

    def test_const_oob_error(self):
        cmem = np.arange(4, dtype=np.float64)
        unit, _ = make_unit(cmem=cmem)
        ctx = make_ctx()
        ctx.regs[1] = np.full(WARP, 100.0)
        inst = Instruction("LDC", Reg(0), (Reg(1),))
        with pytest.raises(IndexError, match="constant"):
            unit.execute(inst, ctx, full_mask(), smem_array(), now=0.0)


class TestSharedPath:
    def test_conflict_phases_extend_completion(self):
        unit, _ = make_unit()
        ctx = make_ctx()
        smem = smem_array(1024)
        smem[:] = np.arange(1024)
        # Conflict-free vs 16-way conflict.
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        fast = unit.execute(Instruction("LDS", Reg(0), (Reg(1),)),
                            ctx, full_mask(), smem, now=0.0)
        unit.busy_until = 0.0
        ctx.regs[1] = np.arange(WARP, dtype=np.float64) * 16
        slow = unit.execute(Instruction("LDS", Reg(0), (Reg(1),)),
                            ctx, full_mask(), smem, now=0.0)
        assert slow > fast

    def test_smem_store_values(self):
        unit, _ = make_unit()
        ctx = make_ctx()
        smem = smem_array(64)
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        ctx.regs[2] = np.arange(WARP, dtype=np.float64) * 2
        unit.execute(Instruction("STS", None, (Reg(1), Reg(2))),
                     ctx, full_mask(), smem, now=0.0)
        assert np.array_equal(smem[:WARP], np.arange(WARP) * 2)
