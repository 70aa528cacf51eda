"""scalarprod -- scalar product of two vectors (CUDA SDK).

Each block strides over its slice of the vectors accumulating a partial
product, then reduces the partials in shared memory with a barrier-
synchronised tree and writes one result per block.  Exercises: strided
coalesced loads, FFMA accumulation, shared memory, barriers, and the
log-tree divergence of the reduction.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

N = 8192
BLOCK = 128
GRID = 8

A_OFF = 0
B_OFF = N
OUT_OFF = 2 * N


def build_kernel():
    """Assemble the scalar-product reduction kernel."""
    kb = KernelBuilder("scalarProd", smem_words=BLOCK)
    tid, gid, i, a, b, acc, stride, tmp, addr = kb.regs(9)
    p = kb.pred()
    kb.mov(tid, Sreg("tid"))
    kb.mov(gid, Sreg("gtid"))
    kb.mov(acc, 0.0)
    # Grid-stride accumulation loop.
    kb.mov(i, gid)
    kb.label("acc_loop")
    kb.ldg(a, i, offset=A_OFF)
    kb.ldg(b, i, offset=B_OFF)
    kb.ffma(acc, a, b, acc)
    kb.iadd(i, i, GRID * BLOCK)
    kb.setp("lt", p, i, N)
    kb.bra("acc_loop", pred=p)
    # Park partial in shared memory.
    kb.sts(acc, tid)
    kb.bar()
    # Tree reduction: stride halves each step.
    kb.mov(stride, BLOCK // 2)
    kb.label("red_loop")
    kb.setp("lt", p, tid, stride)
    kb.bra("skip", pred=p, sense=False)
    kb.iadd(addr, tid, stride)
    kb.lds(tmp, addr)
    kb.lds(a, tid)
    kb.fadd(a, a, tmp)
    kb.sts(a, tid)
    kb.label("skip")
    kb.bar()
    kb.shr(stride, stride, 1)
    kb.setp("ge", p, stride, 1)
    kb.bra("red_loop", pred=p)
    # Thread 0 stores the block result.
    kb.setp("eq", p, tid, 0)
    kb.bra("done", pred=p, sense=False)
    kb.lds(a, tid)
    kb.mov(b, Sreg("ctaid"))
    kb.stg(a, b, offset=OUT_OFF)
    kb.label("done")
    kb.exit()
    return kb.build()


@register(BenchmarkInfo("scalarprod", 1, "Scalar product of two vectors",
                        "CUDA SDK"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    r = rng()
    a = r.standard_normal(N)
    b = r.standard_normal(N)
    return [KernelLaunch(
        kernel=build_kernel(),
        grid=Dim3(GRID),
        block=Dim3(BLOCK),
        globals_init={A_OFF: a, B_OFF: b},
        gmem_words=2 * N + GRID,
        params={"n": N},
        repeat=100,
    )]


def reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-block partial scalar products."""
    prod = a * b
    partials = np.zeros(GRID)
    idx = np.arange(N)
    block_of = (idx // BLOCK) % GRID
    for g in range(GRID):
        partials[g] = prod[block_of == g].sum()
    return partials
