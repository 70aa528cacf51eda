"""The mini SIMT instruction set executed by the performance simulator.

The paper's performance substrate (GPGPU-Sim) runs real CUDA/OpenCL
binaries via PTX.  Our from-scratch substitute defines a small, PTX-like
SIMT ISA that is rich enough to express the evaluation workloads with
their original algorithmic structure: integer and floating-point
arithmetic, transcendental (SFU) operations, predication, divergent
branches, barriers, and loads/stores to global, shared and constant
memory.

Instructions are fixed-format: an opcode, an optional destination
register, source operands (registers, immediates or special registers),
an optional guard predicate, and op-specific attributes (branch target,
memory space).  All registers are 32-bit architecturally; functionally
we carry values in float64 lane vectors, which represents 32-bit ints
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    """General-purpose register ``r<index>`` (per-thread, 32-bit)."""

    index: int

    def __repr__(self) -> str:
        return f"r{self.index}"


@dataclass(frozen=True)
class Pred:
    """Predicate register ``p<index>`` (per-thread, 1-bit)."""

    index: int

    def __repr__(self) -> str:
        return f"p{self.index}"


@dataclass(frozen=True)
class Imm:
    """Immediate constant baked into the instruction."""

    value: float

    def __repr__(self) -> str:
        return f"#{self.value}"


#: Names of readable special registers (CUDA-style geometry registers).
SPECIAL_REGISTERS = (
    "tid", "ctaid", "ntid", "nctaid", "laneid", "warpid", "gtid",
)


@dataclass(frozen=True)
class Sreg:
    """Special (read-only) register such as ``tid`` or ``ctaid``."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in SPECIAL_REGISTERS:
            raise ValueError(f"unknown special register {self.name!r}")

    def __repr__(self) -> str:
        return f"%{self.name}"


Operand = Union[Reg, Imm, Sreg]

# ---------------------------------------------------------------------------
# Opcodes and their unit classes
# ---------------------------------------------------------------------------

#: Integer-pipeline opcodes.
INT_OPS = frozenset({
    "IADD", "ISUB", "IMUL", "IMAD", "AND", "OR", "XOR", "NOT",
    "SHL", "SHR", "IMIN", "IMAX", "IABS", "MOV", "SELP",
    "SETP.EQ", "SETP.NE", "SETP.LT", "SETP.LE", "SETP.GT", "SETP.GE",
    "IDIV", "IMOD", "I2F", "F2I",
})

#: Floating-point-pipeline opcodes.
FP_OPS = frozenset({
    "FADD", "FSUB", "FMUL", "FFMA", "FMIN", "FMAX", "FNEG", "FABS",
    "FSETP.EQ", "FSETP.NE", "FSETP.LT", "FSETP.LE", "FSETP.GT", "FSETP.GE",
})

#: Special-function-unit opcodes (transcendentals, per the paper: sine,
#: cosine, reciprocal, square root).
SFU_OPS = frozenset({"RCP", "RSQRT", "SQRT", "SIN", "COS", "EXP2", "LOG2",
                     "FDIV"})

#: Memory opcodes with their address space.
MEM_OPS = frozenset({"LDG", "STG", "LDS", "STS", "LDC", "LDT"})

#: Control-flow opcodes.
CTRL_OPS = frozenset({"BRA", "JMP", "BAR", "EXIT", "NOP"})

ALL_OPS = INT_OPS | FP_OPS | SFU_OPS | MEM_OPS | CTRL_OPS

#: Opcodes whose destination is a predicate register.
PREDICATE_SETTERS = frozenset(op for op in ALL_OPS if "SETP" in op)


def unit_class(op: str) -> str:
    """Execution unit class for ``op``: int, fp, sfu, mem, or ctrl."""
    if op in INT_OPS:
        return "int"
    if op in FP_OPS:
        return "fp"
    if op in SFU_OPS:
        return "sfu"
    if op in MEM_OPS:
        return "mem"
    if op in CTRL_OPS:
        return "ctrl"
    raise ValueError(f"unknown opcode {op!r}")


# ---------------------------------------------------------------------------
# Instruction
# ---------------------------------------------------------------------------


@dataclass
class Instruction:
    """One static SIMT instruction.

    Attributes:
        op: Opcode string from :data:`ALL_OPS`.
        dst: Destination :class:`Reg`, :class:`Pred` (for SETP) or None.
        srcs: Source operands, in op-defined order.
        guard: Optional guard predicate -- ``(Pred, sense)``; the
            instruction only executes in lanes where the predicate equals
            ``sense``.
        target: Branch target PC (filled by the assembler for BRA/JMP).
        reconv_pc: Reconvergence PC (immediate post-dominator of a
            potentially divergent branch); attached by CFG analysis.
        mem_space: For memory ops: "global", "shared", or "const".
        offset: Constant address offset (in words) for memory ops.
    """

    op: str
    dst: Optional[Union[Reg, Pred]] = None
    srcs: Tuple[Operand, ...] = ()
    guard: Optional[Tuple[Pred, bool]] = None
    target: Optional[int] = None
    reconv_pc: Optional[int] = None
    mem_space: Optional[str] = None
    offset: int = 0

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown opcode {self.op!r}")
        if self.op in MEM_OPS and self.mem_space is None:
            self.mem_space = {"LDG": "global", "STG": "global",
                              "LDS": "shared", "STS": "shared",
                              "LDC": "const", "LDT": "texture"}[self.op]
        # The issue scheduler reads .unit (and, under a scoreboard,
        # .reads_regs/.writes_reg) on every scan of every warp; resolve
        # them once instead of per lookup.  srcs/dst never change after
        # construction.
        self._unit = unit_class(self.op)
        self._reads_regs = tuple(s.index for s in self.srcs
                                 if isinstance(s, Reg))
        self._writes_reg = self.dst.index if isinstance(self.dst, Reg) \
            else None

    @property
    def unit(self) -> str:
        """Execution unit class (int/fp/sfu/mem/ctrl)."""
        return self._unit

    @property
    def is_load(self) -> bool:
        return self.op in ("LDG", "LDS", "LDC", "LDT")

    @property
    def is_store(self) -> bool:
        return self.op in ("STG", "STS")

    @property
    def is_branch(self) -> bool:
        return self.op in ("BRA", "JMP")

    @property
    def reads_regs(self) -> Tuple[int, ...]:
        """Indices of general registers read by this instruction."""
        return self._reads_regs

    @property
    def writes_reg(self) -> Optional[int]:
        """Index of the general register written, if any."""
        return self._writes_reg

    def __repr__(self) -> str:
        parts = [self.op]
        if self.dst is not None:
            parts.append(repr(self.dst))
        srcs = [repr(s) for s in self.srcs]
        if self.op in MEM_OPS and srcs:
            # The first source is the address register; show the offset.
            suffix = f"+{self.offset}" if self.offset else ""
            srcs[0] = f"[{srcs[0]}{suffix}]"
        parts.extend(srcs)
        if self.target is not None:
            parts.append(f"->{self.target}")
        if self.guard is not None:
            pred, sense = self.guard
            parts.insert(0, f"@{'' if sense else '!'}{pred!r}")
        return " ".join(parts)
