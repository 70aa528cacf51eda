"""Scalar reference interpreter for the functional layer.

:mod:`repro.sim.functional` executes warp instructions lane-vectorised
with numpy; this module is the *oracle* it is verified against -- an
independent per-lane interpreter that walks the active lanes one at a
time with numpy scalar arithmetic.  numpy scalar ops use the same
rounding and truncation as the ufunc loops, so the two implementations
must agree bit-for-bit; any vectorization bug (masking, aliasing,
broadcast, reduction order) shows up as a mismatch.

This path is deliberately slow and is only used for cross-checking:
:data:`REFERENCE` is the binding the ``functional_ref`` backend and the
determinism tests hand to ``GPU(config, functional=REFERENCE)`` to
re-run a whole kernel on the scalar oracle.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..isa.instructions import Imm, Instruction, Pred, Reg, Sreg
from .functional import AluExecutor, FunctionalBinding, WarpContext

_MASK32 = np.int64(0xFFFFFFFF)
_SHIFT31 = np.int64(31)


def _i(x) -> np.int64:
    """float64 scalar -> int64 scalar (C truncation, like .astype)."""
    return np.int64(x)


def _f(x) -> np.float64:
    return np.float64(x)


def _clean(x) -> np.float64:
    """Scalar twin of the vector path's nan_to_num protection."""
    return np.float64(np.nan_to_num(np.float64(x), nan=0.0,
                                    posinf=3.4e38, neginf=-3.4e38))


#: Scalar value-op dispatch, mirroring functional's op tables one lane
#: at a time.
_ALU_REF: Dict[str, Callable] = {
    "MOV": lambda s: s[0],
    "IADD": lambda s: _f(_i(s[0]) + _i(s[1])),
    "ISUB": lambda s: _f(_i(s[0]) - _i(s[1])),
    "IMUL": lambda s: _f((_i(s[0]) * _i(s[1])) & _MASK32),
    "IMAD": lambda s: _f(((_i(s[0]) * _i(s[1])) + _i(s[2])) & _MASK32),
    "IDIV": lambda s: _f(_i(s[0]) // _i(s[1])) if _i(s[1]) != 0 else _f(0.0),
    "IMOD": lambda s: _f(_i(s[0]) % _i(s[1])) if _i(s[1]) != 0 else _f(0.0),
    "AND": lambda s: _f(_i(s[0]) & _i(s[1])),
    "OR": lambda s: _f(_i(s[0]) | _i(s[1])),
    "XOR": lambda s: _f(_i(s[0]) ^ _i(s[1])),
    "NOT": lambda s: _f(~_i(s[0]) & _MASK32),
    "SHL": lambda s: _f((_i(s[0]) << (_i(s[1]) & _SHIFT31)) & _MASK32),
    "SHR": lambda s: _f((_i(s[0]) & _MASK32) >> (_i(s[1]) & _SHIFT31)),
    "IMIN": lambda s: _f(min(_i(s[0]), _i(s[1]))),
    "IMAX": lambda s: _f(max(_i(s[0]), _i(s[1]))),
    "IABS": lambda s: _f(abs(_i(s[0]))),
    "I2F": lambda s: _f(s[0]),
    "F2I": lambda s: _f(_i(np.trunc(s[0]))),
    "FADD": lambda s: s[0] + s[1],
    "FSUB": lambda s: s[0] - s[1],
    "FMUL": lambda s: s[0] * s[1],
    "FFMA": lambda s: s[0] * s[1] + s[2],
    "FMIN": lambda s: np.minimum(s[0], s[1]),
    "FMAX": lambda s: np.maximum(s[0], s[1]),
    "FNEG": lambda s: -s[0],
    "FABS": lambda s: np.abs(s[0]),
}

_SFU_REF: Dict[str, Callable] = {
    "RCP": lambda s: _clean(1.0 / s[0]),
    "RSQRT": lambda s: _clean(1.0 / np.sqrt(s[0])),
    "SQRT": lambda s: _clean(np.sqrt(s[0])),
    "SIN": lambda s: _clean(np.sin(s[0])),
    "COS": lambda s: _clean(np.cos(s[0])),
    "EXP2": lambda s: _clean(np.exp2(np.clip(s[0], -126, 127))),
    "LOG2": lambda s: _clean(np.log2(s[0]) if s[0] > 0 else np.float64("nan")),
    "FDIV": lambda s: _clean(s[0] / s[1]),
}

_CMP_REF: Dict[str, Callable] = {
    "EQ": lambda a, b: a == b,
    "NE": lambda a, b: a != b,
    "LT": lambda a, b: a < b,
    "LE": lambda a, b: a <= b,
    "GT": lambda a, b: a > b,
    "GE": lambda a, b: a >= b,
}


def _read_lane(ctx: WarpContext, operand, lane: int) -> np.float64:
    if isinstance(operand, Reg):
        return ctx.regs[operand.index][lane]
    if isinstance(operand, Imm):
        return np.float64(operand.value)
    if isinstance(operand, Sreg):
        return np.float64(ctx.specials[operand.name][lane])
    raise TypeError(f"cannot read {operand!r}")


def execute_alu_reference(inst: Instruction, ctx: WarpContext,
                          mask: np.ndarray) -> None:
    """Per-lane scalar execution; drop-in for ``execute_alu``."""
    op = inst.op
    lanes = np.nonzero(mask)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if op.startswith("SETP.") or op.startswith("FSETP."):
            cmp = _CMP_REF[op.split(".", 1)[1]]
            assert isinstance(inst.dst, Pred)
            dst = ctx.preds[inst.dst.index]
            for lane in lanes:
                a = _read_lane(ctx, inst.srcs[0], lane)
                b = _read_lane(ctx, inst.srcs[1], lane)
                dst[lane] = bool(cmp(a, b))
            return
        if op == "NOP":
            return
        assert isinstance(inst.dst, Reg)
        dst = ctx.regs[inst.dst.index]
        if op == "SELP":
            sel = ctx.preds[inst.sel_pred.index]  # type: ignore[attr-defined]
            for lane in lanes:
                a = _read_lane(ctx, inst.srcs[0], lane)
                b = _read_lane(ctx, inst.srcs[1], lane)
                dst[lane] = a if sel[lane] else b
            return
        table = _SFU_REF.get(op) or _ALU_REF.get(op)
        if table is None:
            raise ValueError(f"not an ALU op: {op}")
        # Stage results so an instruction reading its own destination
        # (e.g. IADD r1, r1, r2) sees pre-write values in every lane,
        # exactly like the vectorised path.
        staged = [(lane, table([_read_lane(ctx, s, lane)
                                for s in inst.srcs]))
                  for lane in lanes]
        for lane, value in staged:
            dst[lane] = value


def branch_taken_mask_reference(inst: Instruction, ctx: WarpContext,
                                active: np.ndarray) -> np.ndarray:
    """Per-lane scalar twin of ``branch_taken_mask``."""
    taken = np.zeros_like(active)
    if inst.guard is None:
        taken[:] = active
        return taken
    pred, sense = inst.guard
    pvals = ctx.preds[pred.index]
    for lane in np.nonzero(active)[0]:
        taken[lane] = pvals[lane] if sense else not pvals[lane]
    return taken


def compile_alu_reference(inst: Instruction, warp_size: int) -> AluExecutor:
    """The scalar oracle as a compile step (see ``compile_alu``).

    Nothing is resolved ahead of time: every call re-interprets
    ``inst`` lane by lane.
    """

    def execute(ctx: WarpContext, mask: np.ndarray, lanes: int) -> None:
        execute_alu_reference(inst, ctx, mask)

    return execute


#: The scalar oracle as a core binding (see :class:`FunctionalBinding`).
REFERENCE = FunctionalBinding(compile_alu_reference,
                              branch_taken_mask_reference)
