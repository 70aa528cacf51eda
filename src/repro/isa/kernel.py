"""Kernel container and assembler-style builder DSL.

Workloads construct kernels with :class:`KernelBuilder`, a tiny assembler:
it allocates registers, resolves labels, infers register/predicate counts
and attaches reconvergence PCs via CFG analysis.  The result is an
immutable :class:`Kernel` the simulator can execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .cfg import attach_reconvergence_pcs
from .instructions import Imm, Instruction, Operand, Pred, Reg, Sreg

Number = Union[int, float]


def _as_operand(value: Union[Operand, Number]) -> Operand:
    """Coerce Python numbers to immediates; pass operands through."""
    if isinstance(value, (Reg, Imm, Sreg)):
        return value
    if isinstance(value, Pred):
        raise TypeError("predicate registers are not data operands")
    if isinstance(value, (int, float)):
        return Imm(float(value))
    raise TypeError(f"cannot use {value!r} as an operand")


class KernelVerificationError(ValueError):
    """Strict assembly found error-severity diagnostics.

    Attributes:
        kernel: Name of the offending kernel.
        diagnostics: The error-severity findings (each has ``.format()``
            for a one-line rendering).
    """

    def __init__(self, kernel: str, diagnostics) -> None:
        self.kernel = kernel
        self.diagnostics = list(diagnostics)
        lines = "\n".join(d.format() for d in self.diagnostics)
        super().__init__(
            f"kernel {kernel!r} failed verification with "
            f"{len(self.diagnostics)} error(s):\n{lines}")


@dataclass(frozen=True)
class Kernel:
    """An assembled SIMT kernel.

    Attributes:
        name: Kernel name (appears in reports).
        instructions: The static instruction sequence.
        n_regs: General registers per thread.
        n_preds: Predicate registers per thread.
        smem_words: Shared memory per thread block, in 32-bit words.
    """

    name: str
    instructions: Tuple[Instruction, ...]
    n_regs: int
    n_preds: int
    smem_words: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def static_size(self) -> int:
        """Static instruction count."""
        return len(self.instructions)

    def disassemble(self) -> str:
        """Human-readable listing with PCs, branch arrows and
        reconvergence annotations (for debugging kernels)."""
        targets = {i.target for i in self.instructions
                   if i.target is not None}
        lines = [f"// {self.name}: {self.n_regs} regs, "
                 f"{self.n_preds} preds, {self.smem_words} smem words"]
        for pc, inst in enumerate(self.instructions):
            marker = "L" if pc in targets else " "
            note = ""
            if inst.op == "BRA" and inst.reconv_pc is not None:
                note = f"   // reconverge @{inst.reconv_pc}"
            lines.append(f"{marker}{pc:4d}:  {inst!r}{note}")
        return "\n".join(lines)


class KernelBuilder:
    """Assembler for :class:`Kernel` objects.

    Example::

        kb = KernelBuilder("vectoradd")
        a, b, c = kb.reg(), kb.reg(), kb.reg()
        tid = kb.reg()
        kb.mov(tid, Sreg("gtid"))
        kb.ldg(a, tid, offset=0)
        kb.ldg(b, tid, offset=1024)
        kb.fadd(c, a, b)
        kb.stg(c, tid, offset=2048)
        kb.exit()
        kernel = kb.build()
    """

    def __init__(self, name: str, smem_words: int = 0) -> None:
        self.name = name
        self.smem_words = smem_words
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._pending_targets: List[Tuple[int, str]] = []
        self._next_reg = 0
        self._next_pred = 0

    # -- resource allocation ------------------------------------------------

    def reg(self) -> Reg:
        """Allocate a fresh general register."""
        r = Reg(self._next_reg)
        self._next_reg += 1
        return r

    def regs(self, count: int) -> List[Reg]:
        """Allocate ``count`` fresh general registers."""
        return [self.reg() for _ in range(count)]

    def pred(self) -> Pred:
        """Allocate a fresh predicate register."""
        p = Pred(self._next_pred)
        self._next_pred += 1
        return p

    # -- labels --------------------------------------------------------------

    def label(self, name: str) -> None:
        """Define ``name`` at the current PC."""
        if name in self._labels:
            raise ValueError(f"label {name!r} defined twice")
        self._labels[name] = len(self._instructions)

    # -- emission -------------------------------------------------------------

    def emit(self, inst: Instruction) -> None:
        """Append a raw instruction."""
        self._instructions.append(inst)

    def _op(self, op: str, dst, srcs, guard=None, **kw) -> None:
        self.emit(Instruction(
            op=op, dst=dst,
            srcs=tuple(_as_operand(s) for s in srcs),
            guard=guard, **kw,
        ))

    # Integer ops.
    def mov(self, d: Reg, a, guard=None) -> None:
        self._op("MOV", d, [a], guard)

    def iadd(self, d: Reg, a, b, guard=None) -> None:
        self._op("IADD", d, [a, b], guard)

    def isub(self, d: Reg, a, b, guard=None) -> None:
        self._op("ISUB", d, [a, b], guard)

    def imul(self, d: Reg, a, b, guard=None) -> None:
        self._op("IMUL", d, [a, b], guard)

    def imad(self, d: Reg, a, b, c, guard=None) -> None:
        self._op("IMAD", d, [a, b, c], guard)

    def idiv(self, d: Reg, a, b, guard=None) -> None:
        self._op("IDIV", d, [a, b], guard)

    def imod(self, d: Reg, a, b, guard=None) -> None:
        self._op("IMOD", d, [a, b], guard)

    def and_(self, d: Reg, a, b, guard=None) -> None:
        self._op("AND", d, [a, b], guard)

    def or_(self, d: Reg, a, b, guard=None) -> None:
        self._op("OR", d, [a, b], guard)

    def xor(self, d: Reg, a, b, guard=None) -> None:
        self._op("XOR", d, [a, b], guard)

    def not_(self, d: Reg, a, guard=None) -> None:
        self._op("NOT", d, [a], guard)

    def shl(self, d: Reg, a, b, guard=None) -> None:
        self._op("SHL", d, [a, b], guard)

    def shr(self, d: Reg, a, b, guard=None) -> None:
        self._op("SHR", d, [a, b], guard)

    def imin(self, d: Reg, a, b, guard=None) -> None:
        self._op("IMIN", d, [a, b], guard)

    def imax(self, d: Reg, a, b, guard=None) -> None:
        self._op("IMAX", d, [a, b], guard)

    def iabs(self, d: Reg, a, guard=None) -> None:
        self._op("IABS", d, [a], guard)

    def i2f(self, d: Reg, a, guard=None) -> None:
        self._op("I2F", d, [a], guard)

    def f2i(self, d: Reg, a, guard=None) -> None:
        self._op("F2I", d, [a], guard)

    def selp(self, d: Reg, a, b, p: Pred, guard=None) -> None:
        """d = p ? a : b (predicate is an extra encoded source)."""
        inst = Instruction("SELP", d, (_as_operand(a), _as_operand(b)), guard)
        inst.sel_pred = p  # type: ignore[attr-defined]
        self.emit(inst)

    # Floating-point ops.
    def fadd(self, d: Reg, a, b, guard=None) -> None:
        self._op("FADD", d, [a, b], guard)

    def fsub(self, d: Reg, a, b, guard=None) -> None:
        self._op("FSUB", d, [a, b], guard)

    def fmul(self, d: Reg, a, b, guard=None) -> None:
        self._op("FMUL", d, [a, b], guard)

    def ffma(self, d: Reg, a, b, c, guard=None) -> None:
        self._op("FFMA", d, [a, b, c], guard)

    def fmin(self, d: Reg, a, b, guard=None) -> None:
        self._op("FMIN", d, [a, b], guard)

    def fmax(self, d: Reg, a, b, guard=None) -> None:
        self._op("FMAX", d, [a, b], guard)

    def fneg(self, d: Reg, a, guard=None) -> None:
        self._op("FNEG", d, [a], guard)

    def fabs(self, d: Reg, a, guard=None) -> None:
        self._op("FABS", d, [a], guard)

    # SFU ops.
    def rcp(self, d: Reg, a, guard=None) -> None:
        self._op("RCP", d, [a], guard)

    def rsqrt(self, d: Reg, a, guard=None) -> None:
        self._op("RSQRT", d, [a], guard)

    def sqrt(self, d: Reg, a, guard=None) -> None:
        self._op("SQRT", d, [a], guard)

    def sin(self, d: Reg, a, guard=None) -> None:
        self._op("SIN", d, [a], guard)

    def cos(self, d: Reg, a, guard=None) -> None:
        self._op("COS", d, [a], guard)

    def exp2(self, d: Reg, a, guard=None) -> None:
        self._op("EXP2", d, [a], guard)

    def log2(self, d: Reg, a, guard=None) -> None:
        self._op("LOG2", d, [a], guard)

    def fdiv(self, d: Reg, a, b, guard=None) -> None:
        self._op("FDIV", d, [a, b], guard)

    # Comparisons (integer and float share comparison semantics here).
    def setp(self, cmp: str, p: Pred, a, b, guard=None,
             fp: bool = False) -> None:
        """Set predicate ``p`` to ``a <cmp> b``; cmp in lt/le/gt/ge/eq/ne."""
        op = ("FSETP." if fp else "SETP.") + cmp.upper()
        self._op(op, p, [a, b], guard)

    # Memory ops.  Address operand is a register holding a word address.
    def ldg(self, d: Reg, addr: Reg, offset: int = 0, guard=None) -> None:
        self._op("LDG", d, [addr], guard, offset=offset)

    def stg(self, value, addr: Reg, offset: int = 0, guard=None) -> None:
        self._op("STG", None, [addr, value], guard, offset=offset)

    def lds(self, d: Reg, addr: Reg, offset: int = 0, guard=None) -> None:
        self._op("LDS", d, [addr], guard, offset=offset)

    def sts(self, value, addr: Reg, offset: int = 0, guard=None) -> None:
        self._op("STS", None, [addr, value], guard, offset=offset)

    def ldc(self, d: Reg, addr: Reg, offset: int = 0, guard=None) -> None:
        self._op("LDC", d, [addr], guard, offset=offset)

    def ldt(self, d: Reg, addr: Reg, offset: int = 0, guard=None) -> None:
        """Texture load: a read-only global load through the texture
        cache hierarchy (the LDSTU extension the paper's Section III-C4
        names as future work)."""
        self._op("LDT", d, [addr], guard, offset=offset)

    # Control flow.
    def bra(self, label: str, pred: Optional[Pred] = None,
            sense: bool = True) -> None:
        """Conditional branch to ``label`` where ``pred == sense``.

        Without a predicate the branch is still encoded as BRA (always
        taken, never divergent); use :meth:`jmp` for clarity instead.
        """
        guard = (pred, sense) if pred is not None else None
        self._pending_targets.append((len(self._instructions), label))
        self.emit(Instruction("BRA", None, (), guard, target=0))

    def jmp(self, label: str) -> None:
        """Unconditional jump to ``label``."""
        self._pending_targets.append((len(self._instructions), label))
        self.emit(Instruction("JMP", None, (), None, target=0))

    def bar(self) -> None:
        """Block-wide barrier (CUDA __syncthreads)."""
        self.emit(Instruction("BAR"))

    def exit(self) -> None:
        """Terminate the thread."""
        self.emit(Instruction("EXIT"))

    def nop(self) -> None:
        self.emit(Instruction("NOP"))

    # -- assembly -------------------------------------------------------------

    def build(self, verify: bool = False) -> Kernel:
        """Resolve labels, attach reconvergence PCs, and freeze.

        Args:
            verify: Run the static verifier passes over the assembled
                kernel and raise :class:`KernelVerificationError` on
                any error-severity diagnostic (use-before-def, operand
                mismatches, malformed control flow).  Off by default:
                verification walks the CFG, which assembly itself does
                not need.
        """
        if not self._instructions or self._instructions[-1].op != "EXIT":
            self.exit()
        for pc, label in self._pending_targets:
            if label not in self._labels:
                raise ValueError(f"undefined label {label!r}")
            self._instructions[pc].target = self._labels[label]
        attach_reconvergence_pcs(self._instructions)
        kernel = Kernel(
            name=self.name,
            instructions=tuple(self._instructions),
            n_regs=max(1, self._next_reg),
            n_preds=max(1, self._next_pred),
            smem_words=self.smem_words,
        )
        if verify:
            # Imported here: repro.analysis depends on repro.isa, so a
            # module-level import would be circular.
            from ..analysis.diagnostics import Severity
            from ..analysis.framework import LaunchShape, run_passes
            from ..analysis.verifier import (CfgVerifierPass,
                                             StructuralVerifierPass)
            result = run_passes(
                kernel, LaunchShape(n_threads=32),
                passes=[StructuralVerifierPass(), CfgVerifierPass()])
            errors = [d for d in result.diagnostics
                      if d.severity >= Severity.ERROR]
            if errors:
                raise KernelVerificationError(kernel.name, errors)
        return kernel

    def finish(self, verify: bool = True) -> Kernel:
        """Strict-mode assembly: :meth:`build` with verification on."""
        return self.build(verify=verify)
