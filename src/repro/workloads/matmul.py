"""matmul -- tiled matrix-matrix multiplication (CUDA SDK matrixMul).

Classic shared-memory tiling: each 16x16-thread block computes a 16x16
tile of C = A x B, looping over K in tile-sized steps; both input tiles
are staged in shared memory behind barriers and the inner product runs
from shared memory with FFMAs.  Exercises: 2D indexing arithmetic (INT),
coalesced tile loads, shared memory reuse, barriers, FFMA throughput.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

DIM = 64            # square matrix dimension
TILE = 16           # tile edge
BLOCK = TILE * TILE  # 256 threads
GRID = (DIM // TILE) ** 2

A_OFF = 0
B_OFF = DIM * DIM
C_OFF = 2 * DIM * DIM


def build_kernel():
    """Assemble this benchmark's kernel."""
    kb = KernelBuilder("matrixMul", smem_words=2 * TILE * TILE)
    tid, bid, tx, ty, bx, by = kb.regs(6)
    row, col, acc, k0, addr, av, bv, tmp = kb.regs(8)
    kk, sa, sb = kb.regs(3)
    p = kb.pred()

    kb.mov(tid, Sreg("tid"))
    kb.mov(bid, Sreg("ctaid"))
    # 2D decomposition of flat ids.
    kb.imod(tx, tid, TILE)
    kb.idiv(ty, tid, TILE)
    kb.imod(bx, bid, DIM // TILE)
    kb.idiv(by, bid, DIM // TILE)
    # row = by*TILE + ty ; col = bx*TILE + tx
    kb.imad(row, by, TILE, ty)
    kb.imad(col, bx, TILE, tx)
    kb.mov(acc, 0.0)
    kb.mov(k0, 0)

    kb.label("tile_loop")
    # Stage A[row, k0+tx] into smem[ty*TILE+tx].
    kb.imad(addr, row, DIM, k0)
    kb.iadd(addr, addr, tx)
    kb.ldg(av, addr, offset=A_OFF)
    kb.imad(tmp, ty, TILE, tx)
    kb.sts(av, tmp)
    # Stage B[k0+ty, col] into smem[TILE*TILE + ty*TILE+tx].
    kb.iadd(addr, k0, ty)
    kb.imad(addr, addr, DIM, col)
    kb.ldg(bv, addr, offset=B_OFF)
    kb.sts(bv, tmp, offset=TILE * TILE)
    kb.bar()
    # Inner product over the staged tiles.
    kb.mov(kk, 0)
    kb.label("inner")
    kb.imad(sa, ty, TILE, kk)
    kb.lds(av, sa)
    kb.imad(sb, kk, TILE, tx)
    kb.lds(bv, sb, offset=TILE * TILE)
    kb.ffma(acc, av, bv, acc)
    kb.iadd(kk, kk, 1)
    kb.setp("lt", p, kk, TILE)
    kb.bra("inner", pred=p)
    kb.bar()
    kb.iadd(k0, k0, TILE)
    kb.setp("lt", p, k0, DIM)
    kb.bra("tile_loop", pred=p)

    # C[row, col] = acc
    kb.imad(addr, row, DIM, col)
    kb.stg(acc, addr, offset=C_OFF)
    kb.exit()
    return kb.build()


@register(BenchmarkInfo("matmul", 1, "Matrix-matrix multiplication",
                        "CUDA SDK"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    r = rng()
    a = r.standard_normal(DIM * DIM)
    b = r.standard_normal(DIM * DIM)
    return [KernelLaunch(
        kernel=build_kernel(),
        grid=Dim3(GRID),
        block=Dim3(BLOCK),
        globals_init={A_OFF: a, B_OFF: b},
        gmem_words=3 * DIM * DIM,
        params={"dim": DIM, "tile": TILE},
        repeat=100,
    )]


def reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C = A @ B on the flattened DIM x DIM matrices."""
    return (a.reshape(DIM, DIM) @ b.reshape(DIM, DIM)).ravel()
