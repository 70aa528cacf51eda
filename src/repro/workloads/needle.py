"""needle -- Needleman-Wunsch sequence alignment (Rodinia), two kernels.

The DP matrix is processed in TILE x TILE blocks along anti-diagonals;
``needle1`` handles a growing (top-left) anti-diagonal of blocks and
``needle2`` a shrinking (bottom-right) one.  Within a block, 16 threads
sweep the tile's internal anti-diagonals out of shared memory with a
barrier per wavefront step, computing

    F[i][j] = max(F[i-1][j-1] + ref[i][j],
                  F[i-1][j] - penalty, F[i][j-1] - penalty).

Heavy in barriers, shared memory, IMAX/FMAX, and strongly divergent (the
wavefront guard masks more lanes than it keeps on most steps).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

SIZE = 64                # DP matrix is (SIZE+1) x (SIZE+1)
TILE = 16
N_TILES = SIZE // TILE   # 4x4 tile grid
PENALTY = 10
DIM = SIZE + 1

F_OFF = 0                # DP matrix, row-major (SIZE+1)^2
REF_OFF = DIM * DIM      # reference/similarity matrix, same shape


def _build_diag_kernel(name: str, diag: int, reverse: bool):
    """Kernel processing anti-diagonal ``diag`` of the tile grid.

    Block ``bid`` covers tile (bx, by) with bx + by == diag; the growing
    phase enumerates bx from 0, the shrinking phase from the diagonal's
    first valid column.
    """
    kb = KernelBuilder(name, smem_words=(TILE + 1) * (TILE + 1))
    bid, tid, bx, by, ox, oy = kb.regs(6)
    i, m, row, addr, gaddr = kb.regs(5)
    up, left, diag_v, refv, best = kb.regs(5)
    p = kb.pred()
    pw = kb.pred()

    kb.mov(tid, Sreg("tid"))
    kb.mov(bid, Sreg("ctaid"))
    first_bx = max(0, diag - (N_TILES - 1)) if reverse else 0
    kb.iadd(bx, bid, first_bx)
    kb.isub(by, diag, bx)
    # Tile origin in the DP matrix (+1 skips the boundary row/column).
    kb.imad(ox, bx, TILE, 1)
    kb.imad(oy, by, TILE, 1)

    # Stage the (TILE+1)x(TILE+1) region (tile plus top/left halo) into
    # shared memory: staged cell (i, j) is global (oy-1+i, ox-1+j).
    kb.mov(i, 0)
    kb.label("stage")
    kb.iadd(gaddr, oy, i)
    kb.iadd(gaddr, gaddr, -1)
    kb.imul(gaddr, gaddr, DIM)
    kb.iadd(gaddr, gaddr, ox)
    # Each thread stages column tid+1 of this staged row.
    kb.iadd(addr, gaddr, tid)
    kb.ldg(up, addr, offset=F_OFF)
    kb.imad(addr, i, TILE + 1, tid)
    kb.sts(up, addr, offset=1)
    # Thread 0 stages the left-halo column (staged column 0).
    kb.setp("eq", p, tid, 0)
    kb.iadd(addr, gaddr, -1)
    kb.ldg(left, addr, offset=F_OFF, guard=(p, True))
    kb.imul(addr, i, TILE + 1)
    kb.sts(left, addr, guard=(p, True))
    kb.iadd(i, i, 1)
    kb.setp("le", p, i, TILE)
    kb.bra("stage", pred=p)
    kb.bar()

    # Wavefront: m = 0 .. 2*TILE-2; thread tid owns column tid and is
    # active when its cell's row m - tid lies inside the tile.
    kb.mov(m, 0)
    kb.label("wave")
    kb.isub(row, m, tid)
    kb.setp("ge", pw, row, 0)
    kb.bra("wave_skip", pred=pw, sense=False)
    kb.setp("lt", pw, row, TILE)
    kb.bra("wave_skip", pred=pw, sense=False)
    # Staged coordinates of the cell: (row+1, tid+1).
    kb.iadd(addr, row, 1)
    kb.imad(addr, addr, TILE + 1, tid)
    kb.iadd(addr, addr, 1)
    kb.isub(gaddr, addr, TILE + 1)
    kb.lds(up, gaddr)             # staged (row, tid+1)
    kb.isub(gaddr, addr, TILE + 2)
    kb.lds(diag_v, gaddr)         # staged (row, tid)
    kb.isub(gaddr, addr, 1)
    kb.lds(left, gaddr)           # staged (row+1, tid)
    # Reference value at global (oy+row, ox+tid).
    kb.iadd(gaddr, oy, row)
    kb.imul(gaddr, gaddr, DIM)
    kb.iadd(gaddr, gaddr, ox)
    kb.iadd(gaddr, gaddr, tid)
    kb.ldg(refv, gaddr, offset=REF_OFF)
    kb.fadd(best, diag_v, refv)
    kb.fadd(up, up, -float(PENALTY))
    kb.fadd(left, left, -float(PENALTY))
    kb.fmax(best, best, up)
    kb.fmax(best, best, left)
    kb.sts(best, addr)
    kb.label("wave_skip")
    kb.bar()
    kb.iadd(m, m, 1)
    kb.setp("lt", p, m, 2 * TILE - 1)
    kb.bra("wave", pred=p)

    # Write the computed tile back.
    kb.mov(i, 0)
    kb.label("writeback")
    kb.imad(addr, i, TILE + 1, tid)
    kb.iadd(addr, addr, TILE + 2)  # staged (i+1, tid+1)
    kb.lds(best, addr)
    kb.iadd(gaddr, oy, i)
    kb.imul(gaddr, gaddr, DIM)
    kb.iadd(gaddr, gaddr, ox)
    kb.iadd(gaddr, gaddr, tid)
    kb.stg(best, gaddr, offset=F_OFF)
    kb.iadd(i, i, 1)
    kb.setp("lt", p, i, TILE)
    kb.bra("writeback", pred=p)
    kb.exit()
    return kb.build()


def reference_dp(ref: np.ndarray) -> np.ndarray:
    """Full Needleman-Wunsch DP matrix (row-major, flattened)."""
    f = np.zeros((DIM, DIM))
    f[0, :] = -PENALTY * np.arange(DIM)
    f[:, 0] = -PENALTY * np.arange(DIM)
    r = ref.reshape(DIM, DIM)
    for i in range(1, DIM):
        for j in range(1, DIM):
            f[i, j] = max(f[i - 1, j - 1] + r[i, j],
                          f[i - 1, j] - PENALTY,
                          f[i, j - 1] - PENALTY)
    return f.ravel()


def make_inputs():
    """Deterministic reference (similarity) matrix."""
    return rng().integers(-4, 5, DIM * DIM).astype(np.float64)


def _blank_diagonal(full: np.ndarray, diag: int) -> np.ndarray:
    """DP matrix with the tiles of anti-diagonal ``diag`` zeroed.

    This reproduces the state just before Rodinia's per-diagonal launch:
    every earlier diagonal is converged; the kernel must fill the holes.
    """
    f = full.copy().reshape(DIM, DIM)
    for bx in range(max(0, diag - (N_TILES - 1)), N_TILES):
        by = diag - bx
        if 0 <= by < N_TILES:
            f[1 + by * TILE:1 + (by + 1) * TILE,
              1 + bx * TILE:1 + (bx + 1) * TILE] = 0.0
    return f.ravel()


@register(BenchmarkInfo("needle", 2, "Needleman-Wunsch sequence alignment",
                        "Rodinia"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    ref = make_inputs()
    full = reference_dp(ref)
    diag1 = N_TILES - 1          # main (largest growing) anti-diagonal
    diag2 = N_TILES              # first shrinking anti-diagonal
    gmem_words = REF_OFF + DIM * DIM
    return [
        KernelLaunch(kernel=_build_diag_kernel("needle1", diag1, False),
                     grid=Dim3(N_TILES), block=Dim3(TILE),
                     globals_init={F_OFF: _blank_diagonal(full, diag1),
                                   REF_OFF: ref},
                     gmem_words=gmem_words,
                     params={"size": SIZE, "diag": diag1}, repeat=100),
        KernelLaunch(kernel=_build_diag_kernel("needle2", diag2, True),
                     grid=Dim3(2 * N_TILES - 1 - diag2), block=Dim3(TILE),
                     globals_init={F_OFF: _blank_diagonal(full, diag2),
                                   REF_OFF: ref},
                     gmem_words=gmem_words,
                     params={"size": SIZE, "diag": diag2}, repeat=100),
    ]
