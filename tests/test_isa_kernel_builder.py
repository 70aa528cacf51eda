"""Unit tests for the kernel-builder DSL and Kernel container."""

import pytest

from repro.isa import Imm, KernelBuilder


class TestRegisterAllocation:
    def test_fresh_registers(self):
        kb = KernelBuilder("k")
        r0, r1 = kb.reg(), kb.reg()
        assert (r0.index, r1.index) == (0, 1)

    def test_regs_bulk(self):
        kb = KernelBuilder("k")
        rs = kb.regs(5)
        assert [r.index for r in rs] == [0, 1, 2, 3, 4]

    def test_pred_allocation(self):
        kb = KernelBuilder("k")
        assert kb.pred().index == 0
        assert kb.pred().index == 1

    def test_n_regs_recorded(self):
        kb = KernelBuilder("k")
        a, b = kb.regs(2)
        kb.iadd(a, b, 1)
        assert kb.build().n_regs == 2


class TestAssembly:
    def test_immediate_coercion(self):
        kb = KernelBuilder("k")
        r = kb.reg()
        kb.iadd(r, r, 7)
        kernel = kb.build()
        assert isinstance(kernel.instructions[0].srcs[1], Imm)
        assert kernel.instructions[0].srcs[1].value == 7.0

    def test_auto_exit_appended(self):
        kb = KernelBuilder("k")
        r = kb.reg()
        kb.mov(r, 1)
        kernel = kb.build()
        assert kernel.instructions[-1].op == "EXIT"

    def test_no_double_exit(self):
        kb = KernelBuilder("k")
        kb.exit()
        kernel = kb.build()
        assert sum(1 for i in kernel.instructions if i.op == "EXIT") == 1

    def test_label_resolution(self):
        kb = KernelBuilder("k")
        r = kb.reg()
        p = kb.pred()
        kb.label("top")
        kb.iadd(r, r, 1)
        kb.setp("lt", p, r, 10)
        kb.bra("top", pred=p)
        kernel = kb.build()
        bra = kernel.instructions[2]
        assert bra.op == "BRA" and bra.target == 0

    def test_forward_label(self):
        kb = KernelBuilder("k")
        kb.jmp("end")
        kb.nop()
        kb.label("end")
        kernel = kb.build()
        assert kernel.instructions[0].target == 2

    def test_undefined_label_raises(self):
        kb = KernelBuilder("k")
        kb.jmp("nowhere")
        with pytest.raises(ValueError, match="undefined label"):
            kb.build()

    def test_duplicate_label_raises(self):
        kb = KernelBuilder("k")
        kb.label("x")
        with pytest.raises(ValueError, match="defined twice"):
            kb.label("x")

    def test_smem_words_carried(self):
        kb = KernelBuilder("k", smem_words=48)
        assert kb.build().smem_words == 48

    def test_mem_offsets(self):
        kb = KernelBuilder("k")
        r, a = kb.regs(2)
        kb.ldg(r, a, offset=1024)
        assert kb.build().instructions[0].offset == 1024

    def test_guard_threading(self):
        kb = KernelBuilder("k")
        r = kb.reg()
        p = kb.pred()
        kb.mov(r, 1, guard=(p, False))
        inst = kb.build().instructions[0]
        assert inst.guard == (p, False)

    def test_selp_records_predicate(self):
        kb = KernelBuilder("k")
        d, a, b = kb.regs(3)
        p = kb.pred()
        kb.selp(d, a, b, p)
        inst = kb.build().instructions[0]
        assert inst.sel_pred is p

    def test_kernel_len(self):
        kb = KernelBuilder("k")
        kb.nop()
        kernel = kb.build()
        assert len(kernel) == 2  # NOP + auto EXIT
        assert kernel.static_size == 2


class TestReconvergenceAnnotation:
    def test_if_else_reconverges_at_join(self):
        kb = KernelBuilder("k")
        r = kb.reg()
        p = kb.pred()
        kb.setp("lt", p, r, 0)       # 0
        kb.bra("else_", pred=p)      # 1
        kb.iadd(r, r, 1)             # 2
        kb.jmp("join")               # 3
        kb.label("else_")
        kb.iadd(r, r, 2)             # 4
        kb.label("join")
        kb.exit()                    # 5
        kernel = kb.build()
        assert kernel.instructions[1].reconv_pc == 5

    def test_loop_branch_reconverges_at_fallthrough(self):
        kb = KernelBuilder("k")
        r = kb.reg()
        p = kb.pred()
        kb.label("loop")
        kb.iadd(r, r, 1)             # 0
        kb.setp("lt", p, r, 4)       # 1
        kb.bra("loop", pred=p)       # 2
        kb.exit()                    # 3
        kernel = kb.build()
        assert kernel.instructions[2].reconv_pc == 3
