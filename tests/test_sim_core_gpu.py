"""Integration tests for the core and whole-GPU simulation."""

import numpy as np
import pytest

from repro.isa import Dim3, KernelBuilder, KernelLaunch, Sreg
from repro.sim import GPU, gt240, gtx580, simulate
from tests.conftest import build_vecadd_launch


class TestFunctionalExecution:
    def test_vecadd_both_gpus(self):
        launch, x, y = build_vecadd_launch()
        for cfg in (gt240(), gtx580()):
            out = simulate(cfg, launch)
            assert np.allclose(out.gmem[512:768], x + y)

    def test_partial_warp(self):
        # 40 threads: one full warp + one 8-lane warp.
        launch, x, y = build_vecadd_launch(n=40, block=40, grid=1)
        out = simulate(gt240(), launch)
        assert np.allclose(out.gmem[80:120], x + y)

    def test_predicated_store(self):
        kb = KernelBuilder("predstore")
        i, v = kb.regs(2)
        p = kb.pred()
        kb.mov(i, Sreg("gtid"))
        kb.mov(v, 7)
        kb.and_(v, i, 1)
        kb.setp("eq", p, v, 0)
        kb.mov(v, 1)
        kb.stg(v, i, offset=0, guard=(p, True))
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(64), gmem_words=128)
        out = simulate(gt240(), launch)
        assert out.gmem[0] == 1 and out.gmem[1] == 0

    def test_divergent_if_else(self):
        kb = KernelBuilder("ifelse")
        i, v = kb.regs(2)
        p = kb.pred()
        kb.mov(i, Sreg("gtid"))
        kb.setp("lt", p, i, 16)
        kb.bra("low", pred=p)
        kb.mov(v, 200)
        kb.jmp("join")
        kb.label("low")
        kb.mov(v, 100)
        kb.label("join")
        kb.stg(v, i, offset=0)
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(32), gmem_words=64)
        out = simulate(gt240(), launch)
        assert (out.gmem[:16] == 100).all() and (out.gmem[16:32] == 200).all()

    def test_loop_with_divergent_trip_counts(self):
        # Each thread loops tid+1 times accumulating 1.
        kb = KernelBuilder("varloop")
        i, acc, n = kb.regs(3)
        p = kb.pred()
        kb.mov(i, Sreg("gtid"))
        kb.iadd(n, i, 1)
        kb.mov(acc, 0)
        kb.label("loop")
        kb.iadd(acc, acc, 1)
        kb.isub(n, n, 1)
        kb.setp("gt", p, n, 0)
        kb.bra("loop", pred=p)
        kb.stg(acc, i, offset=0)
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(32), gmem_words=64)
        out = simulate(gt240(), launch)
        assert np.array_equal(out.gmem[:32], np.arange(1, 33))

    def test_smem_barrier_communication(self):
        kb = KernelBuilder("rotate", smem_words=32)
        tid, src, v = kb.regs(3)
        kb.mov(tid, Sreg("tid"))
        kb.sts(tid, tid)
        kb.bar()
        kb.iadd(src, tid, 1)
        kb.imod(src, src, 32)
        kb.lds(v, src)
        kb.stg(v, tid, offset=0)
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(32), gmem_words=64)
        out = simulate(gt240(), launch)
        expect = (np.arange(32) + 1) % 32
        assert np.array_equal(out.gmem[:32], expect)

    def test_constant_memory(self):
        kb = KernelBuilder("constread")
        i, z, c = kb.regs(3)
        kb.mov(i, Sreg("gtid"))
        kb.mov(z, 0)
        kb.ldc(c, z, offset=2)
        kb.stg(c, i, offset=0)
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(32),
                              const_init=np.array([1.0, 2.0, 42.0]),
                              gmem_words=64)
        out = simulate(gt240(), launch)
        assert (out.gmem[:32] == 42.0).all()


class TestScheduling:
    def test_blocks_fill_clusters_breadth_first(self):
        launch, _, _ = build_vecadd_launch(n=256, block=64)  # 4 blocks
        gpu = GPU(gt240())
        out = gpu.run(launch)
        assert out.activity.active_cores == 4
        assert out.activity.active_clusters == 4

    def test_more_blocks_than_cores(self):
        launch, x, y = build_vecadd_launch(n=2048, block=64)  # 32 blocks
        out = simulate(gt240(), launch)
        assert out.activity.active_cores == 12
        assert out.activity.blocks_launched == 32
        assert np.allclose(out.gmem[4096:4096 + 2048], x + y)

    def test_single_block_single_core(self):
        launch, _, _ = build_vecadd_launch(n=64, block=64, grid=1)
        out = simulate(gt240(), launch)
        assert out.activity.active_cores == 1
        assert out.activity.active_clusters == 1

    def test_occupancy_limited_by_registers(self):
        kb = KernelBuilder("fat")
        regs = kb.regs(64)           # 64 regs x 256 threads = 16K regs
        kb.mov(regs[63], Sreg("gtid"))
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(256), gmem_words=64)
        gpu = GPU(gt240())
        gpu.cores[0].prepare(launch.kernel, launch,
                             launch.build_global_memory(), None)
        assert gpu.cores[0].max_concurrent_blocks == 1


class TestActivityReport:
    def test_counters_consistent(self, launches):
        out = simulate(gt240(), launches["BlackScholes"])
        act = out.activity
        act.validate()
        assert act.issued_instructions > 0
        assert act.fetches == act.issued_instructions
        assert act.runtime_s == pytest.approx(
            act.shader_cycles / gt240().shader_clock_hz)

    def test_lane_ops_bounded_by_threads(self, launches):
        out = simulate(gt240(), launches["vectorAdd"])
        act = out.activity
        n = act.threads_launched
        # vectorAdd: 1 fp op and 1 int-class op (MOV) per thread.
        assert act.fp_ops == n
        assert act.int_ops == n

    def test_divergence_counted(self, launches):
        out = simulate(gt240(), launches["bfs1"])
        assert out.activity.divergent_branches > 0
        assert out.activity.stack_pushes > 0

    def test_barrier_counted(self, launches):
        out = simulate(gt240(), launches["scalarProd"])
        assert out.activity.barriers > 0

    def test_scaled_preserves_rates(self, launches):
        out = simulate(gt240(), launches["vectorAdd"])
        act = out.activity
        scaled = act.scaled(10.0)
        assert scaled.fp_ops == act.fp_ops * 10
        assert scaled.runtime_s == act.runtime_s


class TestRobustness:
    def test_deadlock_detected(self):
        # A kernel where warp 0 waits at a barrier no one else reaches
        # cannot happen with our block-wide barriers, but a barrier with
        # a single warp must release immediately (not deadlock).
        kb = KernelBuilder("lonebar")
        kb.bar()
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(32), gmem_words=32)
        out = simulate(gt240(), launch)
        assert out.activity.barriers == 1

    def test_max_cycles_guard(self):
        kb = KernelBuilder("forever")
        r = kb.reg()
        p = kb.pred()
        kb.label("spin")
        kb.iadd(r, r, 1)
        kb.setp("ge", p, r, 0)
        kb.bra("spin", pred=p)    # always taken
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(32), gmem_words=32)
        with pytest.raises(RuntimeError, match="exceeded"):
            GPU(gt240()).run(launch, max_cycles=10_000)

    def test_oob_shared_access_raises(self):
        kb = KernelBuilder("oob", smem_words=16)
        tid, v = kb.regs(2)
        kb.mov(tid, Sreg("tid"))
        kb.lds(v, tid)   # tid up to 31 >= 16 words
        kb.exit()
        launch = KernelLaunch(kb.build(), Dim3(1), Dim3(32), gmem_words=32)
        with pytest.raises(IndexError):
            simulate(gt240(), launch)

    def test_ipc_property(self, launches):
        out = simulate(gt240(), launches["matrixMul"])
        assert 0 < out.ipc < gt240().n_cores


class TestDeterminism:
    def test_same_launch_same_cycles(self):
        launch, _, _ = build_vecadd_launch()
        a = simulate(gt240(), launch)
        b = simulate(gt240(), launch)
        assert a.cycles == b.cycles
        assert a.activity.to_dict() == b.activity.to_dict()
