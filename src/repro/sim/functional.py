"""Functional (value-level) execution of warp instructions.

The timing model decides *when* an instruction executes; this module
decides *what* it computes.  All arithmetic is lane-vectorised with numpy
over the warp's active mask.  Integer operations are performed on int64
views of the float64 register lanes, which represents 32-bit integer
arithmetic exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..isa.instructions import Imm, Instruction, Pred, Reg, Sreg

_INT_MASK = np.int64(0xFFFFFFFF)


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


_SHIFT_MASK = np.int64(31)

#: Integer ops: int64 lane vectors in, int64 lane vector out (sources
#: are the float registers truncated to int64; the result is widened
#: back to float64 on the way out).
_INT: Dict[str, Callable] = {
    "IADD": np.add,
    "ISUB": np.subtract,
    "IMUL": lambda a, b: (a * b) & _INT_MASK,
    "IMAD": lambda a, b, c: ((a * b) + c) & _INT_MASK,
    "IDIV": _safe_div,
    "IMOD": _safe_mod,
    "AND": np.bitwise_and,
    "OR": np.bitwise_or,
    "XOR": np.bitwise_xor,
    "NOT": lambda a: ~a & _INT_MASK,
    "SHL": lambda a, b: (a << (b & _SHIFT_MASK)) & _INT_MASK,
    "SHR": lambda a, b: (a & _INT_MASK) >> (b & _SHIFT_MASK),
    "IMIN": np.minimum,
    "IMAX": np.maximum,
    "IABS": np.abs,
}


def _protected(fn: Callable[..., np.ndarray], **ignore: str) -> Callable:
    """Wrap an op to tolerate invalid inputs (like hardware): NaN -> 0,
    infinities saturate to the float32 range."""

    def apply(*srcs):
        with np.errstate(**ignore):
            out = fn(*srcs)
        return np.nan_to_num(out, nan=0.0, posinf=3.4e38, neginf=-3.4e38)

    return apply


def _sfu(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    return _protected(fn, divide="ignore", invalid="ignore", over="ignore")


#: Float-domain ops: float64 lane vectors in, float64 lane vector out.
_FLOAT: Dict[str, Callable] = {
    "MOV": lambda a: a,
    "I2F": lambda a: a.astype(np.float64),
    "F2I": lambda a: np.trunc(a).astype(np.int64).astype(np.float64),
    "FADD": np.add,
    "FSUB": np.subtract,
    "FMUL": np.multiply,
    "FFMA": lambda a, b, c: a * b + c,
    "FMIN": np.minimum,
    "FMAX": np.maximum,
    "FNEG": np.negative,
    "FABS": np.abs,
    "FDIV": _protected(np.true_divide, divide="ignore", invalid="ignore"),
    "RCP": _sfu(lambda a: 1.0 / a),
    "RSQRT": _sfu(lambda a: 1.0 / np.sqrt(a)),
    "SQRT": _sfu(np.sqrt),
    "SIN": _sfu(np.sin),
    "COS": _sfu(np.cos),
    "EXP2": _sfu(lambda a: np.exp2(np.clip(a, -126, 127))),
    "LOG2": _sfu(lambda a: np.log2(np.where(a > 0, a, np.nan))),
}

#: Opcodes whose value is one op over source lane vectors.
VALUE_OPS = frozenset(_INT) | frozenset(_FLOAT)


def evaluate_op(op: str, srcs: Sequence[np.ndarray]) -> np.ndarray:
    """The value of ``op`` over whole source lane vectors.

    ``op`` is one of :data:`VALUE_OPS` and ``srcs`` are float64 lane
    vectors; nothing is masked or stored.
    """
    if op in _INT:
        return _INT[op](*[s.astype(np.int64) for s in srcs]).astype(
            np.float64)
    return _FLOAT[op](*srcs)


#: SETP/FSETP comparisons (float lane vectors in, bool lane vector out).
_CMP: Dict[str, Callable] = {
    "EQ": np.equal,
    "NE": np.not_equal,
    "LT": np.less,
    "LE": np.less_equal,
    "GT": np.greater,
    "GE": np.greater_equal,
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


#: A compiled ALU instruction: ``executor(ctx, mask, lanes)`` writes the
#: result into the ``mask`` lanes, ``lanes`` being ``mask``'s popcount.
AluExecutor = Callable[[WarpContext, np.ndarray, int], None]


def _fetcher(operand, warp_size: int, as_int: bool) -> Callable:
    """``ctx -> lane vector`` of one source operand, resolved once.

    Immediates become one read-only lane vector, already truncated to
    int64 for integer ops; registers and special registers are read
    from the warp context at execution time.
    """
    if isinstance(operand, Reg):
        index = operand.index
        if as_int:
            return lambda ctx: ctx.regs[index].astype(np.int64)
        return lambda ctx: ctx.regs[index]
    if isinstance(operand, Imm):
        vec = np.full(warp_size, operand.value, dtype=np.float64)
        if as_int:
            vec = vec.astype(np.int64)
        vec.setflags(write=False)
        return lambda ctx: vec
    if isinstance(operand, Sreg):
        name = operand.name
        if as_int:
            return lambda ctx: ctx.specials[name].astype(np.int64)
        return lambda ctx: ctx.specials[name]
    raise TypeError(f"cannot read {operand!r}")


def _nop(ctx: WarpContext, mask: np.ndarray, lanes: int) -> None:
    return None


def compile_alu(inst: Instruction, warp_size: int) -> AluExecutor:
    """Compile an INT/FP/SFU/SETP/SELP instruction into an executor.

    The opcode, each operand's kind and the destination are resolved
    here, once; the executor only reads operands, computes over every
    lane and stores the ``mask`` lanes (all of them when ``lanes`` is
    the warp size, none when it is 0).
    """
    op = inst.op
    if op == "NOP":
        return _nop
    as_int = op in _INT
    fetch = [_fetcher(s, warp_size, as_int) for s in inst.srcs]
    if op.startswith("SETP.") or op.startswith("FSETP."):
        cmp = _CMP[op.split(".", 1)[1]]
        a, b = fetch
        assert isinstance(inst.dst, Pred)
        return _storing(lambda ctx: cmp(a(ctx), b(ctx)), "preds",
                        inst.dst.index, warp_size)
    if op == "SELP":
        a, b = fetch
        sel = inst.sel_pred.index  # type: ignore[attr-defined]

        def value(ctx: WarpContext) -> np.ndarray:
            return np.where(ctx.preds[sel], a(ctx), b(ctx))
    elif as_int:
        value = _applied(_INT[op], fetch, widen=True)
    elif op in _FLOAT:
        value = _applied(_FLOAT[op], fetch, widen=False)
    else:
        raise ValueError(f"not an ALU op: {op}")
    assert isinstance(inst.dst, Reg)
    return _storing(value, "regs", inst.dst.index, warp_size)


def _applied(fn: Callable, fetch: List[Callable],
             widen: bool) -> Callable[[WarpContext], np.ndarray]:
    """``ctx -> fn(sources)``, widened from int64 to float64 if asked."""
    if len(fetch) == 1:
        a, = fetch
        if widen:
            return lambda ctx: fn(a(ctx)).astype(np.float64)
        return lambda ctx: fn(a(ctx))
    if len(fetch) == 2:
        a, b = fetch
        if widen:
            return lambda ctx: fn(a(ctx), b(ctx)).astype(np.float64)
        return lambda ctx: fn(a(ctx), b(ctx))
    a, b, c = fetch
    if widen:
        return lambda ctx: fn(a(ctx), b(ctx), c(ctx)).astype(np.float64)
    return lambda ctx: fn(a(ctx), b(ctx), c(ctx))


def _storing(value: Callable[[WarpContext], np.ndarray], bank: str,
             index: int, warp_size: int) -> AluExecutor:
    """Executor storing ``value(ctx)`` into row ``index`` of the
    context's ``bank`` (``regs`` or ``preds``) in the masked lanes."""

    def execute(ctx: WarpContext, mask: np.ndarray, lanes: int) -> None:
        if lanes == warp_size:
            getattr(ctx, bank)[index] = value(ctx)
        elif lanes:
            np.copyto(getattr(ctx, bank)[index], value(ctx), where=mask)

    return execute


def execute_alu(inst: Instruction, ctx: WarpContext, mask: np.ndarray) -> None:
    """Execute an INT/FP/SFU/SETP/SELP instruction in the masked lanes."""
    compile_alu(inst, ctx.warp_size)(ctx, mask, int(np.count_nonzero(mask)))


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

    #: ``compile_alu(inst, warp_size) -> executor``: called once per ALU
    #: instruction per launch (see :func:`compile_alu`).
    compile_alu: Callable[[Instruction, int], AluExecutor]
    branch_taken_mask: Callable[[Instruction, WarpContext, np.ndarray],
                                np.ndarray]


#: The lane-vectorised numpy layer every ordinary run uses.
VECTORIZED = FunctionalBinding(compile_alu, branch_taken_mask)


def memory_addresses(inst: Instruction, ctx: WarpContext,
                     mask: np.ndarray) -> np.ndarray:
    """Word addresses of the masked lanes for a memory instruction."""
    base = ctx.read(inst.srcs[0])
    # Mask first: the int64 conversion is per-lane, so converting only
    # the participating lanes yields bit-identical addresses for less
    # work (most memory ops run under a partial guard or divergence).
    return base[mask].astype(np.int64) + inst.offset
