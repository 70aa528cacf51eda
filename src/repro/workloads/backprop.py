"""backprop -- multi-layer perceptron training (Rodinia), two kernels.

``backprop1`` (layerforward): blocks of 16x16 threads compute partial
weighted sums from a 16-input chunk to the 16 hidden units; the input
slice is staged in shared memory, the products are reduced over the
input dimension with a barrier-synchronised tree, and one partial sum
per (block, hidden unit) is written out.

``backprop2`` (adjust_weights): the weight-update sweep
``w += eta * delta[hid] * input[in] + momentum * oldw`` -- one thread per
weight, three streams in, two streams out, almost pure memory bandwidth.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

N_INPUT = 256
N_HIDDEN = 16
TILE = 16
BLOCK = TILE * TILE
GRID = N_INPUT // TILE

ETA = 0.3
MOMENTUM = 0.3

IN_OFF = 0
W_OFF = N_INPUT                          # weights [N_INPUT][N_HIDDEN]
PARTIAL_OFF = W_OFF + N_INPUT * N_HIDDEN  # partial sums [GRID][N_HIDDEN]
DELTA_OFF = PARTIAL_OFF + GRID * N_HIDDEN
OLDW_OFF = DELTA_OFF + N_HIDDEN          # momentum terms [N_INPUT][N_HIDDEN]


def build_layerforward():
    """Assemble the backprop1 (layerforward) kernel."""
    kb = KernelBuilder("backprop1", smem_words=TILE + TILE * TILE)
    tid, bid, tx, ty, addr, x, w, prod, stride, tmp = kb.regs(10)
    p = kb.pred()
    pzero = kb.pred()
    kb.mov(tid, Sreg("tid"))
    kb.mov(bid, Sreg("ctaid"))
    kb.imod(tx, tid, TILE)   # hidden index
    kb.idiv(ty, tid, TILE)   # input index within the chunk
    # Threads with tx == 0 stage the input slice into smem[0..TILE).
    kb.setp("eq", pzero, tx, 0)
    kb.imad(addr, bid, TILE, ty)
    kb.ldg(x, addr, offset=IN_OFF, guard=(pzero, True))
    kb.sts(x, ty, guard=(pzero, True))
    kb.bar()
    # prod = w[in][hid] * input[in], parked in smem[TILE + ty*TILE+tx].
    kb.lds(x, ty)
    kb.imad(addr, bid, TILE, ty)
    kb.imad(addr, addr, N_HIDDEN, tx)
    kb.ldg(w, addr, offset=W_OFF)
    kb.fmul(prod, w, x)
    kb.imad(addr, ty, TILE, tx)
    kb.sts(prod, addr, offset=TILE)
    kb.bar()
    # Tree-reduce over ty for each hidden column tx.
    kb.mov(stride, TILE // 2)
    kb.label("red")
    kb.setp("lt", p, ty, stride)
    kb.bra("skip", pred=p, sense=False)
    kb.iadd(tmp, ty, stride)
    kb.imad(addr, tmp, TILE, tx)
    kb.lds(w, addr, offset=TILE)
    kb.imad(addr, ty, TILE, tx)
    kb.lds(prod, addr, offset=TILE)
    kb.fadd(prod, prod, w)
    kb.sts(prod, addr, offset=TILE)
    kb.label("skip")
    kb.bar()
    kb.shr(stride, stride, 1)
    kb.setp("ge", p, stride, 1)
    kb.bra("red", pred=p)
    # ty == 0 writes the partial sum for its hidden unit.
    kb.setp("eq", p, ty, 0)
    kb.bra("out_done", pred=p, sense=False)
    kb.lds(prod, tx, offset=TILE)
    kb.imad(addr, bid, N_HIDDEN, tx)
    kb.stg(prod, addr, offset=PARTIAL_OFF)
    kb.label("out_done")
    kb.exit()
    return kb.build()


def build_adjust_weights():
    """Assemble the backprop2 (adjust_weights) kernel."""
    kb = KernelBuilder("backprop2")
    gid, in_idx, hid_idx, x, d, w, oldw, upd = kb.regs(8)
    kb.mov(gid, Sreg("gtid"))
    kb.idiv(in_idx, gid, N_HIDDEN)
    kb.imod(hid_idx, gid, N_HIDDEN)
    kb.ldg(x, in_idx, offset=IN_OFF)
    kb.ldg(d, hid_idx, offset=DELTA_OFF)
    kb.ldg(w, gid, offset=W_OFF)
    kb.ldg(oldw, gid, offset=OLDW_OFF)
    # upd = eta*delta*x + momentum*oldw
    kb.fmul(upd, d, x)
    kb.fmul(upd, upd, ETA)
    kb.ffma(upd, oldw, MOMENTUM, upd)
    kb.fadd(w, w, upd)
    kb.stg(w, gid, offset=W_OFF)
    kb.stg(upd, gid, offset=OLDW_OFF)
    kb.exit()
    return kb.build()


def make_inputs():
    """Deterministic inputs: activations, weights, deltas, momentum."""
    r = rng()
    x = r.standard_normal(N_INPUT)
    w = r.standard_normal(N_INPUT * N_HIDDEN) * 0.1
    delta = r.standard_normal(N_HIDDEN) * 0.1
    oldw = r.standard_normal(N_INPUT * N_HIDDEN) * 0.01
    return x, w, delta, oldw


@register(BenchmarkInfo("backprop", 2, "Multi-layer perceptron training",
                        "Rodinia"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    x, w, delta, oldw = make_inputs()
    gmem_words = OLDW_OFF + N_INPUT * N_HIDDEN
    init = {IN_OFF: x, W_OFF: w, DELTA_OFF: delta, OLDW_OFF: oldw}
    return [
        KernelLaunch(kernel=build_layerforward(), grid=Dim3(GRID),
                     block=Dim3(BLOCK), globals_init=init,
                     gmem_words=gmem_words,
                     params={"inputs": N_INPUT, "hidden": N_HIDDEN},
                     repeat=100),
        KernelLaunch(kernel=build_adjust_weights(),
                     grid=Dim3(N_INPUT * N_HIDDEN // BLOCK),
                     block=Dim3(BLOCK), globals_init=init,
                     gmem_words=gmem_words,
                     params={"weights": N_INPUT * N_HIDDEN},
                     repeat=100),
    ]


def reference_partials(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-block partial weighted sums (backprop1 output)."""
    wm = w.reshape(N_INPUT, N_HIDDEN)
    parts = np.zeros((GRID, N_HIDDEN))
    for b in range(GRID):
        sl = slice(b * TILE, (b + 1) * TILE)
        parts[b] = (wm[sl] * x[sl, None]).sum(axis=0)
    return parts.ravel()


def reference_weights(x, w, delta, oldw):
    """Updated weights and momentum terms (backprop2 output)."""
    wm = w.reshape(N_INPUT, N_HIDDEN)
    ow = oldw.reshape(N_INPUT, N_HIDDEN)
    upd = ETA * delta[None, :] * x[:, None] + MOMENTUM * ow
    return (wm + upd).ravel(), upd.ravel()
