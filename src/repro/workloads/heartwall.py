"""heartwall -- ultrasound heart-wall tracking (Rodinia).

The tracking core is normalized cross-correlation of a template against
an image window around each tracked sample point.  One block per tracked
point: threads accumulate products and squared sums over the window,
reduce them in shared memory behind barriers, and thread 0 normalises
with SFU operations (square roots, reciprocal).  A blend of FP
throughput, shared-memory reduction traffic, and SFU work.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

N_POINTS = 32            # tracked sample points (blocks)
WINDOW = 256             # pixels in each correlation window
BLOCK = 128              # threads; each handles WINDOW/BLOCK pixels
PIX_PER_THREAD = WINDOW // BLOCK

IMG_OFF = 0                          # windows, [N_POINTS][WINDOW]
TPL_OFF = N_POINTS * WINDOW          # template, [WINDOW]
OUT_OFF = TPL_OFF + WINDOW           # ncc score per point


def build_kernel():
    """Assemble this benchmark's kernel."""
    kb = KernelBuilder("heartwall", smem_words=3 * BLOCK)
    tid, bid, base, addr, img, tpl = kb.regs(6)
    s_it, s_ii, s_tt, stride, tmp, tmp2 = kb.regs(6)
    k = kb.regs(1)[0]
    p = kb.pred()
    kb.mov(tid, Sreg("tid"))
    kb.mov(bid, Sreg("ctaid"))
    kb.mov(s_it, 0.0)
    kb.mov(s_ii, 0.0)
    kb.mov(s_tt, 0.0)
    kb.imul(base, bid, WINDOW)
    for px in range(PIX_PER_THREAD):
        kb.iadd(addr, base, tid)
        if px:
            kb.iadd(addr, addr, px * BLOCK)
        kb.ldg(img, addr, offset=IMG_OFF)
        kb.iadd(addr, tid, px * BLOCK)
        kb.ldg(tpl, addr, offset=TPL_OFF)
        kb.ffma(s_it, img, tpl, s_it)
        kb.ffma(s_ii, img, img, s_ii)
        kb.ffma(s_tt, tpl, tpl, s_tt)
    # Park the three partials in shared memory.
    kb.sts(s_it, tid)
    kb.sts(s_ii, tid, offset=BLOCK)
    kb.sts(s_tt, tid, offset=2 * BLOCK)
    kb.bar()
    # Tree reduction of all three sums.
    kb.mov(stride, BLOCK // 2)
    kb.label("red")
    kb.setp("lt", p, tid, stride)
    kb.bra("skip", pred=p, sense=False)
    kb.iadd(addr, tid, stride)
    for off in (0, BLOCK, 2 * BLOCK):
        kb.lds(tmp, addr, offset=off)
        kb.lds(tmp2, tid, offset=off)
        kb.fadd(tmp2, tmp2, tmp)
        kb.sts(tmp2, tid, offset=off)
    kb.label("skip")
    kb.bar()
    kb.shr(stride, stride, 1)
    kb.setp("ge", p, stride, 1)
    kb.bra("red", pred=p)
    # Thread 0: ncc = s_it / sqrt(s_ii * s_tt)
    kb.setp("eq", p, tid, 0)
    kb.bra("done", pred=p, sense=False)
    kb.lds(s_it, tid)
    kb.lds(s_ii, tid, offset=BLOCK)
    kb.lds(s_tt, tid, offset=2 * BLOCK)
    kb.fmul(tmp, s_ii, s_tt)
    kb.rsqrt(k, tmp)
    kb.fmul(tmp, s_it, k)
    kb.stg(tmp, bid, offset=OUT_OFF)
    kb.label("done")
    kb.exit()
    return kb.build()


def make_inputs():
    """Deterministic correlation windows and template."""
    r = rng()
    windows = r.uniform(0.0, 1.0, N_POINTS * WINDOW)
    template = r.uniform(0.0, 1.0, WINDOW)
    return windows, template


@register(BenchmarkInfo("heartwall", 1, "Ultrasound image tracking",
                        "Rodinia"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    windows, template = make_inputs()
    return [KernelLaunch(
        kernel=build_kernel(),
        grid=Dim3(N_POINTS),
        block=Dim3(BLOCK),
        globals_init={IMG_OFF: windows, TPL_OFF: template},
        gmem_words=OUT_OFF + N_POINTS,
        params={"points": N_POINTS, "window": WINDOW},
        repeat=100,
    )]


def reference(windows: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Normalised cross-correlation per tracked point."""
    win = windows.reshape(N_POINTS, WINDOW)
    s_it = (win * template[None, :]).sum(axis=1)
    s_ii = (win * win).sum(axis=1)
    s_tt = float((template * template).sum())
    return s_it / np.sqrt(s_ii * s_tt)
