"""Unit and property tests for functional (value) execution."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import (FP_OPS, INT_OPS, SFU_OPS, Imm,
                                    Instruction, Pred, Reg, Sreg)
from repro.sim.functional import (WarpContext, branch_taken_mask,
                                  compile_alu, execute_alu, memory_addresses)
from repro.sim.functional_ref import execute_alu_reference

WARP = 32


def make_ctx(n_regs=8, n_preds=2):
    specials = {"tid": np.arange(WARP, dtype=np.float64)}
    return WarpContext(n_regs, n_preds, specials, WARP)


def run_op(op, *src_values, dst=0):
    ctx = make_ctx()
    srcs = []
    for i, vals in enumerate(src_values, start=1):
        ctx.regs[i] = np.asarray(vals, dtype=np.float64)
        srcs.append(Reg(i))
    inst = Instruction(op, Reg(dst), tuple(srcs))
    execute_alu(inst, ctx, np.ones(WARP, dtype=bool))
    return ctx.regs[dst]


def lanes(value):
    return np.full(WARP, value, dtype=np.float64)


class TestIntegerOps:
    def test_iadd(self):
        assert run_op("IADD", lanes(3), lanes(4))[0] == 7

    def test_isub_negative(self):
        assert run_op("ISUB", lanes(3), lanes(5))[0] == -2

    def test_imul_wraps_32bit(self):
        out = run_op("IMUL", lanes(0x10000), lanes(0x10000))
        assert out[0] == 0.0  # 2^32 mod 2^32

    def test_imad(self):
        assert run_op("IMAD", lanes(3), lanes(4), lanes(5))[0] == 17

    def test_idiv_truncates(self):
        assert run_op("IDIV", lanes(7), lanes(2))[0] == 3

    def test_idiv_by_zero_is_zero(self):
        assert run_op("IDIV", lanes(7), lanes(0))[0] == 0

    def test_imod(self):
        assert run_op("IMOD", lanes(7), lanes(3))[0] == 1

    def test_bitwise(self):
        assert run_op("AND", lanes(0b1100), lanes(0b1010))[0] == 0b1000
        assert run_op("OR", lanes(0b1100), lanes(0b1010))[0] == 0b1110
        assert run_op("XOR", lanes(0b1100), lanes(0b1010))[0] == 0b0110

    def test_shifts(self):
        assert run_op("SHL", lanes(1), lanes(4))[0] == 16
        assert run_op("SHR", lanes(16), lanes(4))[0] == 1

    def test_minmax_abs(self):
        assert run_op("IMIN", lanes(-3), lanes(2))[0] == -3
        assert run_op("IMAX", lanes(-3), lanes(2))[0] == 2
        assert run_op("IABS", lanes(-3))[0] == 3

    def test_f2i_truncates(self):
        assert run_op("F2I", lanes(2.9))[0] == 2
        assert run_op("F2I", lanes(-2.9))[0] == -2


class TestFloatOps:
    def test_fadd_fsub_fmul(self):
        assert run_op("FADD", lanes(1.5), lanes(2.25))[0] == 3.75
        assert run_op("FSUB", lanes(1.5), lanes(2.25))[0] == -0.75
        assert run_op("FMUL", lanes(1.5), lanes(2.0))[0] == 3.0

    def test_ffma(self):
        assert run_op("FFMA", lanes(2.0), lanes(3.0), lanes(1.0))[0] == 7.0

    def test_fneg_fabs(self):
        assert run_op("FNEG", lanes(2.0))[0] == -2.0
        assert run_op("FABS", lanes(-2.0))[0] == 2.0


class TestSFUOps:
    def test_rcp(self):
        assert run_op("RCP", lanes(4.0))[0] == pytest.approx(0.25)

    def test_rcp_zero_saturates(self):
        out = run_op("RCP", lanes(0.0))
        assert np.isfinite(out).all()

    def test_sqrt_rsqrt(self):
        assert run_op("SQRT", lanes(9.0))[0] == 3.0
        assert run_op("RSQRT", lanes(4.0))[0] == pytest.approx(0.5)

    def test_sqrt_negative_no_nan(self):
        out = run_op("SQRT", lanes(-1.0))
        assert np.isfinite(out).all()

    def test_trig(self):
        assert run_op("SIN", lanes(0.0))[0] == 0.0
        assert run_op("COS", lanes(0.0))[0] == 1.0

    def test_exp2_log2(self):
        assert run_op("EXP2", lanes(3.0))[0] == 8.0
        assert run_op("LOG2", lanes(8.0))[0] == 3.0

    def test_log2_nonpositive_finite(self):
        assert np.isfinite(run_op("LOG2", lanes(-1.0))).all()

    def test_fdiv(self):
        assert run_op("FDIV", lanes(1.0), lanes(4.0))[0] == 0.25


class TestPredication:
    def test_setp_writes_predicate(self):
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        inst = Instruction("SETP.LT", Pred(0), (Reg(1), Imm(16.0)))
        execute_alu(inst, ctx, np.ones(WARP, dtype=bool))
        assert ctx.preds[0][:16].all() and not ctx.preds[0][16:].any()

    def test_setp_respects_mask(self):
        ctx = make_ctx()
        ctx.preds[0][:] = False
        ctx.regs[1] = lanes(0.0)
        half = np.zeros(WARP, dtype=bool)
        half[:16] = True
        inst = Instruction("SETP.EQ", Pred(0), (Reg(1), Imm(0.0)))
        execute_alu(inst, ctx, half)
        assert ctx.preds[0][:16].all() and not ctx.preds[0][16:].any()

    def test_selp(self):
        ctx = make_ctx()
        ctx.regs[1] = lanes(1.0)
        ctx.regs[2] = lanes(2.0)
        ctx.preds[0][::2] = True
        inst = Instruction("SELP", Reg(0), (Reg(1), Reg(2)))
        inst.sel_pred = Pred(0)
        execute_alu(inst, ctx, np.ones(WARP, dtype=bool))
        assert ctx.regs[0][0] == 1.0 and ctx.regs[0][1] == 2.0

    def test_masked_lanes_unchanged(self):
        ctx = make_ctx()
        ctx.regs[0] = lanes(99.0)
        ctx.regs[1] = lanes(1.0)
        inst = Instruction("MOV", Reg(0), (Reg(1),))
        execute_alu(inst, ctx, np.zeros(WARP, dtype=bool))
        assert (ctx.regs[0] == 99.0).all()

    def test_guard_mask_senses(self):
        ctx = make_ctx()
        ctx.preds[0][:8] = True
        active = np.ones(WARP, dtype=bool)
        inst_t = Instruction("NOP", guard=(Pred(0), True))
        inst_f = Instruction("NOP", guard=(Pred(0), False))
        assert ctx.guard_mask(inst_t, active).sum() == 8
        assert ctx.guard_mask(inst_f, active).sum() == 24


class TestBranchAndMemory:
    def test_branch_taken_mask_unguarded(self):
        ctx = make_ctx()
        active = np.ones(WARP, dtype=bool)
        inst = Instruction("BRA", target=0)
        assert branch_taken_mask(inst, ctx, active).all()

    def test_branch_taken_mask_guarded(self):
        ctx = make_ctx()
        ctx.preds[0][:4] = True
        active = np.ones(WARP, dtype=bool)
        inst = Instruction("BRA", target=0, guard=(Pred(0), True))
        assert branch_taken_mask(inst, ctx, active).sum() == 4

    def test_memory_addresses_offset(self):
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        inst = Instruction("LDG", Reg(0), (Reg(1),), offset=100)
        mask = np.ones(WARP, dtype=bool)
        addrs = memory_addresses(inst, ctx, mask)
        assert addrs[0] == 100 and addrs[-1] == 131

    def test_memory_addresses_masked(self):
        ctx = make_ctx()
        ctx.regs[1] = np.arange(WARP, dtype=np.float64)
        inst = Instruction("LDG", Reg(0), (Reg(1),))
        mask = np.zeros(WARP, dtype=bool)
        mask[5] = True
        addrs = memory_addresses(inst, ctx, mask)
        assert list(addrs) == [5]

    def test_sreg_read(self):
        ctx = make_ctx()
        inst = Instruction("MOV", Reg(0), (Sreg("tid"),))
        execute_alu(inst, ctx, np.ones(WARP, dtype=bool))
        assert ctx.regs[0][7] == 7


int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestIntSemanticsProperties:
    @given(a=int32, b=int32)
    @settings(max_examples=80, deadline=None)
    def test_iadd_matches_python(self, a, b):
        assert run_op("IADD", lanes(a), lanes(b))[0] == a + b

    @given(a=st.integers(0, 2**31 - 1), s=st.integers(0, 31))
    @settings(max_examples=80, deadline=None)
    def test_shr_matches_python(self, a, s):
        assert run_op("SHR", lanes(a), lanes(s))[0] == a >> s

    @given(a=st.integers(0, 2**31 - 1), b=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_xor_matches_python(self, a, b):
        assert run_op("XOR", lanes(a), lanes(b))[0] == a ^ b

    @given(a=int32, b=st.integers(1, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_imod_nonnegative_divisor(self, a, b):
        assert run_op("IMOD", lanes(a), lanes(b))[0] == a % b


# -- compiled executors against the scalar oracle -----------------------------

#: Every value opcode: the INT/FP/SFU pipelines hold no memory or
#: control op.
VALUE_OPCODES = sorted(INT_OPS | FP_OPS | SFU_OPS)

#: An immediate per source position (a fraction, so integer ops must
#: truncate the pre-converted immediate exactly as the oracle does).
IMMEDIATES = (3.0, -2.7, 7.5)


def _arity(op):
    if op in ("IMAD", "FFMA"):
        return 3
    if op in ("MOV", "NOT", "IABS", "I2F", "F2I", "FNEG", "FABS") \
            or op in SFU_OPS and op != "FDIV":
        return 1
    return 2


def _differential_ctx(rng):
    gtid = np.arange(WARP, dtype=np.float64) + 29.0
    ctx = WarpContext(6, 3, {"gtid": gtid}, WARP)
    ints = rng.integers(-2**31, 2**31, size=(6, WARP)).astype(np.float64)
    small = rng.integers(-40, 40, size=(6, WARP)).astype(np.float64)
    fracs = rng.uniform(-1e3, 1e3, size=(6, WARP))
    pick = rng.integers(0, 3, size=(6, WARP))
    ctx.regs[:] = np.choose(pick, (ints, small, fracs))
    ctx.regs[:, :3] = 0.0        # zero divisors, 0 ** -1 and friends
    ctx.preds[:] = rng.random((3, WARP)) < 0.5
    return ctx


def _clone(ctx):
    twin = WarpContext(ctx.regs.shape[0], ctx.preds.shape[0],
                       ctx.specials, ctx.warp_size)
    twin.regs[:] = ctx.regs
    twin.preds[:] = ctx.preds
    return twin


def _cases(op):
    """Every (sources, destination, guard, mask) combination to try."""
    rng = np.random.default_rng(sum(map(ord, op)))
    partial = rng.random(WARP) < 0.6
    full = np.ones(WARP, dtype=bool)
    masks = {"full": (full, None), "partial": (partial, None),
             "guard+": (partial, True), "guard-": (full, False),
             "empty": (np.zeros(WARP, dtype=bool), None)}
    kinds = itertools.product(("reg", "imm", "sreg"), repeat=_arity(op))
    for kind in kinds:
        srcs = tuple(Reg(3 + i) if k == "reg" else
                     Imm(IMMEDIATES[i]) if k == "imm" else Sreg("gtid")
                     for i, k in enumerate(kind))
        regs = [s.index for s in srcs if isinstance(s, Reg)]
        setp = "SETP" in op
        dsts = [Pred(2)] if setp else [Reg(0)]
        if setp:
            dsts.append(Pred(0))        # aliases the guard predicate
        elif regs:
            dsts.append(Reg(regs[0]))   # aliases a source
        for dst in dsts:
            for name, (active, sense) in masks.items():
                guard = None if sense is None else (Pred(0), sense)
                yield (f"{kind} {dst!r} {name}", srcs, dst, guard, active)


@pytest.mark.parametrize("op", VALUE_OPCODES)
def test_compiled_executor_matches_reference(op):
    rng = np.random.default_rng(7)
    for label, srcs, dst, guard, active in _cases(op):
        inst = Instruction(op, dst, srcs, guard=guard)
        if op == "SELP":
            inst.sel_pred = Pred(1)
        base = _differential_ctx(rng)
        mask = base.guard_mask(inst, active)
        compiled, thin, oracle = _clone(base), _clone(base), _clone(base)
        with np.errstate(all="ignore"):
            compile_alu(inst, WARP)(compiled, mask,
                                    int(np.count_nonzero(mask)))
            execute_alu(inst, thin, mask)
            execute_alu_reference(inst, oracle, mask)
        for ctx in (compiled, thin):
            assert ctx.regs.tobytes() == oracle.regs.tobytes(), label
            assert ctx.preds.tobytes() == oracle.preds.tobytes(), label
