"""Reusable kernel-construction idioms.

The evaluation workloads repeat a handful of GPU programming patterns --
grid-stride loops, barrier-synchronised shared-memory tree reductions,
2D index decomposition, clamped neighbour indexing.  This module
packages them as emitters over a :class:`~repro.isa.kernel.KernelBuilder`
so downstream users can compose kernels from tested building blocks.

Every emitter takes the builder plus the registers it may use, emits the
instruction sequence, and leaves results in documented registers.
"""

from __future__ import annotations

from typing import Callable, Optional

from .instructions import Pred, Reg, Sreg
from .kernel import KernelBuilder

#: Module-level counter so generated labels never collide.
_UNIQUE = [0]


def _label(prefix: str) -> str:
    _UNIQUE[0] += 1
    return f"__{prefix}_{_UNIQUE[0]}"


def load_thread_ids(kb: KernelBuilder, gtid: Reg,
                    tid: Optional[Reg] = None,
                    ctaid: Optional[Reg] = None) -> None:
    """Populate the standard id registers from special registers."""
    kb.mov(gtid, Sreg("gtid"))
    if tid is not None:
        kb.mov(tid, Sreg("tid"))
    if ctaid is not None:
        kb.mov(ctaid, Sreg("ctaid"))


def counted_loop(kb: KernelBuilder, counter: Reg, pred: Pred, trips: int,
                 body: Callable[[], None]) -> None:
    """Emit ``for counter in range(trips): body()``.

    The counter register is clobbered; ``trips`` must be >= 1.
    """
    if trips < 1:
        raise ValueError("counted loop needs at least one trip")
    top = _label("loop")
    kb.mov(counter, 0)
    kb.label(top)
    body()
    kb.iadd(counter, counter, 1)
    kb.setp("lt", pred, counter, trips)
    kb.bra(top, pred=pred)


def grid_stride_loop(kb: KernelBuilder, index: Reg, pred: Pred,
                     start: Reg, total: int, stride: int,
                     body: Callable[[], None]) -> None:
    """Emit the canonical grid-stride loop over ``total`` elements.

    ``index`` starts at ``start`` (usually the global thread id) and
    advances by ``stride`` (usually grid x block) until it reaches
    ``total``; ``body()`` runs once per position with ``index`` live.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    top = _label("gsl")
    kb.mov(index, start)
    kb.label(top)
    body()
    kb.iadd(index, index, stride)
    kb.setp("lt", pred, index, total)
    kb.bra(top, pred=pred)


def tree_reduce_smem(kb: KernelBuilder, tid: Reg, stride: Reg, tmp_a: Reg,
                     tmp_b: Reg, addr: Reg, pred: Pred, width: int,
                     combine: str = "fadd", smem_offset: int = 0) -> None:
    """Barrier-synchronised tree reduction over shared memory.

    Reduces ``width`` values (one per thread, already stored at
    ``smem[smem_offset + tid]``) into ``smem[smem_offset]``.  ``width``
    must be a power of two; ``combine`` names a two-operand builder op
    (fadd, fmax, fmin, imin, imax, ...).

    All five scratch registers are clobbered.  The caller's threads must
    all execute this emitter (it contains barriers).
    """
    if width & (width - 1) or width < 2:
        raise ValueError("tree reduction needs a power-of-two width >= 2")
    op = getattr(kb, combine)
    top = _label("red")
    skip = _label("redskip")
    kb.bar()
    kb.mov(stride, width // 2)
    kb.label(top)
    kb.setp("lt", pred, tid, stride)
    kb.bra(skip, pred=pred, sense=False)
    kb.iadd(addr, tid, stride)
    kb.lds(tmp_a, addr, offset=smem_offset)
    kb.lds(tmp_b, tid, offset=smem_offset)
    op(tmp_b, tmp_b, tmp_a)
    kb.sts(tmp_b, tid, offset=smem_offset)
    kb.label(skip)
    kb.bar()
    kb.shr(stride, stride, 1)
    kb.setp("ge", pred, stride, 1)
    kb.bra(top, pred=pred)


def decompose_2d(kb: KernelBuilder, flat: Reg, x: Reg, y: Reg,
                 width: int) -> None:
    """Split a flat index into (x, y) = (flat % width, flat // width)."""
    if width < 1:
        raise ValueError("width must be positive")
    kb.imod(x, flat, width)
    kb.idiv(y, flat, width)


def clamped_neighbor(kb: KernelBuilder, out: Reg, coord: Reg, delta: int,
                     limit: int) -> None:
    """out = clamp(coord + delta, 0, limit - 1) -- branch-free halo."""
    if limit < 1:
        raise ValueError("limit must be positive")
    kb.iadd(out, coord, delta)
    kb.imax(out, out, 0)
    kb.imin(out, out, limit - 1)
