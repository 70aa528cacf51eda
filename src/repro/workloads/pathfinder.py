"""pathfinder -- dynamic-programming path search (Rodinia).

Computes, row by row, the minimum-cost path through a grid: each thread
owns one column, keeps the running cost row in shared memory, and each
step takes ``min`` over its three upstream neighbours before adding the
local weight.  Barriers separate the rows; edge threads diverge slightly
at the borders.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

COLS = 1024
ROWS = 20
BLOCK = 128
GRID = COLS // BLOCK

WALL_OFF = 0                # ROWS x COLS weights
SRC_OFF = ROWS * COLS       # initial cost row
OUT_OFF = SRC_OFF + COLS


def build_kernel():
    """Assemble the row-iterated min-path kernel."""
    kb = KernelBuilder("pathfinder", smem_words=BLOCK)
    tid, gid, row, addr, left, mid, right, w, best, tmp = kb.regs(10)
    p = kb.pred()
    kb.mov(tid, Sreg("tid"))
    kb.mov(gid, Sreg("gtid"))
    # Load the source cost row into shared memory.
    kb.ldg(mid, gid, offset=SRC_OFF)
    kb.sts(mid, tid)
    kb.bar()
    kb.mov(row, 0)

    kb.label("row_loop")
    # left/right neighbour columns, clamped within the block (Rodinia
    # processes blocks independently with halo truncation).
    kb.isub(addr, tid, 1)
    kb.imax(addr, addr, 0)
    kb.lds(left, addr)
    kb.lds(mid, tid)
    kb.iadd(addr, tid, 1)
    kb.imin(addr, addr, BLOCK - 1)
    kb.lds(right, addr)
    kb.fmin(best, left, mid)
    kb.fmin(best, best, right)
    # Add this row's wall weight.
    kb.imad(addr, row, COLS, gid)
    kb.ldg(w, addr, offset=WALL_OFF)
    kb.fadd(best, best, w)
    kb.bar()
    kb.sts(best, tid)
    kb.bar()
    kb.iadd(row, row, 1)
    kb.setp("lt", p, row, ROWS)
    kb.bra("row_loop", pred=p)

    kb.lds(tmp, tid)
    kb.stg(tmp, gid, offset=OUT_OFF)
    kb.exit()
    return kb.build()


@register(BenchmarkInfo("pathfinder", 1, "Dynamic programming path search",
                        "Rodinia"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    r = rng()
    wall = r.integers(0, 10, ROWS * COLS).astype(np.float64)
    src = r.integers(0, 10, COLS).astype(np.float64)
    return [KernelLaunch(
        kernel=build_kernel(),
        grid=Dim3(GRID),
        block=Dim3(BLOCK),
        globals_init={WALL_OFF: wall, SRC_OFF: src},
        gmem_words=OUT_OFF + COLS,
        params={"cols": COLS, "rows": ROWS},
        repeat=100,
    )]


def reference(wall: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Row-iterated min-path costs with per-block halo truncation."""
    cost = src.copy().reshape(GRID, BLOCK)
    w = wall.reshape(ROWS, GRID, BLOCK)
    for row in range(ROWS):
        left = np.concatenate([cost[:, :1], cost[:, :-1]], axis=1)
        right = np.concatenate([cost[:, 1:], cost[:, -1:]], axis=1)
        cost = np.minimum(np.minimum(left, cost), right) + w[row]
    return cost.ravel()
