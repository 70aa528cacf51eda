"""Functional (value-level) execution of warp instructions.

The timing model decides *when* an instruction executes; this module
decides *what* it computes.  All arithmetic is lane-vectorised with numpy
over the warp's active mask.  Integer operations are performed on int64
views of the float64 register lanes, which represents 32-bit integer
arithmetic exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from ..isa.instructions import Imm, Instruction, Pred, Reg, Sreg

_INT_MASK = np.int64(0xFFFFFFFF)


def _i(x: np.ndarray) -> np.ndarray:
    """Float lane vector -> int64 lane vector."""
    return x.astype(np.int64)


def _f(x: np.ndarray) -> np.ndarray:
    """Int lane vector -> float64 lane vector."""
    return x.astype(np.float64)


def _safe_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    nz = b != 0
    out[nz] = a[nz] // b[nz]
    return out


def _safe_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    nz = b != 0
    out[nz] = a[nz] % b[nz]
    return out


#: value-op dispatch: op -> callable(list of lane vectors) -> lane vector.
_ALU: Dict[str, Callable] = {
    "MOV": lambda s: s[0],
    "IADD": lambda s: _f(_i(s[0]) + _i(s[1])),
    "ISUB": lambda s: _f(_i(s[0]) - _i(s[1])),
    "IMUL": lambda s: _f((_i(s[0]) * _i(s[1])) & _INT_MASK),
    "IMAD": lambda s: _f(((_i(s[0]) * _i(s[1])) + _i(s[2])) & _INT_MASK),
    "IDIV": lambda s: _f(_safe_div(_i(s[0]), _i(s[1]))),
    "IMOD": lambda s: _f(_safe_mod(_i(s[0]), _i(s[1]))),
    "AND": lambda s: _f(_i(s[0]) & _i(s[1])),
    "OR": lambda s: _f(_i(s[0]) | _i(s[1])),
    "XOR": lambda s: _f(_i(s[0]) ^ _i(s[1])),
    "NOT": lambda s: _f(~_i(s[0]) & _INT_MASK),
    "SHL": lambda s: _f((_i(s[0]) << (_i(s[1]) & np.int64(31))) & _INT_MASK),
    "SHR": lambda s: _f((_i(s[0]) & _INT_MASK) >> (_i(s[1]) & np.int64(31))),
    "IMIN": lambda s: _f(np.minimum(_i(s[0]), _i(s[1]))),
    "IMAX": lambda s: _f(np.maximum(_i(s[0]), _i(s[1]))),
    "IABS": lambda s: _f(np.abs(_i(s[0]))),
    "I2F": lambda s: s[0].astype(np.float64),
    "F2I": lambda s: _f(np.trunc(s[0]).astype(np.int64)),
    "FADD": lambda s: s[0] + s[1],
    "FSUB": lambda s: s[0] - s[1],
    "FMUL": lambda s: s[0] * s[1],
    "FFMA": lambda s: s[0] * s[1] + s[2],
    "FMIN": lambda s: np.minimum(s[0], s[1]),
    "FMAX": lambda s: np.maximum(s[0], s[1]),
    "FNEG": lambda s: -s[0],
    "FABS": lambda s: np.abs(s[0]),
}


def _protected(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Wrap a unary SFU op to tolerate invalid inputs (like hardware)."""

    def apply(s):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = fn(s[0])
        return np.nan_to_num(out, nan=0.0, posinf=3.4e38, neginf=-3.4e38)

    return apply


_SFU: Dict[str, Callable] = {
    "RCP": _protected(lambda a: 1.0 / a),
    "RSQRT": _protected(lambda a: 1.0 / np.sqrt(a)),
    "SQRT": _protected(np.sqrt),
    "SIN": _protected(np.sin),
    "COS": _protected(np.cos),
    "EXP2": _protected(lambda a: np.exp2(np.clip(a, -126, 127))),
    "LOG2": _protected(lambda a: np.log2(np.where(a > 0, a, np.nan))),
}

_CMP: Dict[str, Callable] = {
    "EQ": lambda a, b: a == b,
    "NE": lambda a, b: a != b,
    "LT": lambda a, b: a < b,
    "LE": lambda a, b: a <= b,
    "GT": lambda a, b: a > b,
    "GE": lambda a, b: a >= b,
}


class WarpContext:
    """Register/predicate state plus special values for one warp."""

    __slots__ = ("regs", "preds", "specials", "warp_size", "_imm_cache")

    def __init__(self, n_regs: int, n_preds: int,
                 specials: Dict[str, np.ndarray], warp_size: int) -> None:
        self.warp_size = warp_size
        self.regs = np.zeros((n_regs, warp_size), dtype=np.float64)
        self.preds = np.zeros((n_preds, warp_size), dtype=bool)
        self.specials = specials
        # Broadcast immediates are reused constantly inside loops; build
        # each distinct value's lane vector once.  The cached arrays are
        # read-only so aliasing bugs fail loudly instead of corrupting
        # unrelated instructions.
        self._imm_cache: Dict[float, np.ndarray] = {}

    def read(self, operand, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Lane vector of an operand's value."""
        if isinstance(operand, Reg):
            return self.regs[operand.index]
        if isinstance(operand, Imm):
            vec = self._imm_cache.get(operand.value)
            if vec is None:
                vec = np.full(self.warp_size, operand.value,
                              dtype=np.float64)
                vec.setflags(write=False)
                self._imm_cache[operand.value] = vec
            return vec
        if isinstance(operand, Sreg):
            return self.specials[operand.name]
        raise TypeError(f"cannot read {operand!r}")

    def guard_mask(self, inst: Instruction, active: np.ndarray) -> np.ndarray:
        """Active mask refined by the instruction's guard predicate."""
        if inst.guard is None:
            return active
        pred, sense = inst.guard
        pvals = self.preds[pred.index]
        return active & (pvals if sense else ~pvals)


def execute_alu(inst: Instruction, ctx: WarpContext, mask: np.ndarray) -> None:
    """Execute an INT/FP/SFU/SETP/SELP instruction in the masked lanes."""
    op = inst.op
    # Fully active warps skip fancy indexing (count_nonzero is the
    # cheapest full-mask test on a 32-lane vector).
    full = np.count_nonzero(mask) == mask.size
    if op.startswith("SETP.") or op.startswith("FSETP."):
        cmp = op.split(".", 1)[1]
        a = ctx.read(inst.srcs[0])
        b = ctx.read(inst.srcs[1])
        result = _CMP[cmp](a, b)
        assert isinstance(inst.dst, Pred)
        if full:
            ctx.preds[inst.dst.index][...] = result
        else:
            ctx.preds[inst.dst.index][mask] = result[mask]
        return
    if op == "SELP":
        a = ctx.read(inst.srcs[0])
        b = ctx.read(inst.srcs[1])
        sel = ctx.preds[inst.sel_pred.index]  # type: ignore[attr-defined]
        result = np.where(sel, a, b)
    elif op == "FDIV":
        with np.errstate(divide="ignore", invalid="ignore"):
            result = ctx.read(inst.srcs[0]) / ctx.read(inst.srcs[1])
        result = np.nan_to_num(result, nan=0.0, posinf=3.4e38, neginf=-3.4e38)
    elif op in _SFU:
        result = _SFU[op]([ctx.read(s) for s in inst.srcs])
    elif op in _ALU:
        result = _ALU[op]([ctx.read(s) for s in inst.srcs])
    elif op == "NOP":
        return
    else:
        raise ValueError(f"not an ALU op: {op}")
    assert isinstance(inst.dst, Reg)
    if full:
        ctx.regs[inst.dst.index][...] = result
    else:
        ctx.regs[inst.dst.index][mask] = result[mask]


def branch_taken_mask(inst: Instruction, ctx: WarpContext,
                      active: np.ndarray) -> np.ndarray:
    """Lanes (within ``active``) that take a BRA."""
    if inst.guard is None:
        return active.copy()
    pred, sense = inst.guard
    pvals = ctx.preds[pred.index]
    return active & (pvals if sense else ~pvals)


class FunctionalBinding(NamedTuple):
    """The value-level entry points a GPU's cores execute with.

    Handed to every :class:`~repro.sim.core.Core` at construction, so a
    run's functional layer is fixed per GPU instance: concurrent runs
    with different bindings (the ``functional_ref`` cross-check beside
    ordinary ``cycle`` runs) cannot see each other's choice.
    """

    execute_alu: Callable[[Instruction, WarpContext, np.ndarray], None]
    branch_taken_mask: Callable[[Instruction, WarpContext, np.ndarray],
                                np.ndarray]


#: The lane-vectorised numpy layer every ordinary run uses.
VECTORIZED = FunctionalBinding(execute_alu, branch_taken_mask)


def memory_addresses(inst: Instruction, ctx: WarpContext,
                     mask: np.ndarray) -> np.ndarray:
    """Word addresses of the masked lanes for a memory instruction."""
    base = ctx.read(inst.srcs[0])
    # Mask first: the int64 conversion is per-lane, so converting only
    # the participating lanes yields bit-identical addresses for less
    # work (most memory ops run under a partial guard or divergence).
    return base[mask].astype(np.int64) + inst.offset
