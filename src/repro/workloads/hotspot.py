"""hotspot -- processor temperature estimation (Rodinia).

One time step of the HotSpot thermal grid solver: a 5-point stencil over
the temperature field plus the local power dissipation.  Border cells
clamp their neighbour indices (branch-free, via IMIN/IMAX).  The vertical
stencil neighbours make the access pattern only partially coalesced, so
the kernel stresses the coalescer and DRAM row locality.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

DIM = 64
BLOCK = 256
GRID = DIM * DIM // BLOCK

TEMP_OFF = 0
POWER_OFF = DIM * DIM
OUT_OFF = 2 * DIM * DIM

#: Physical constants of the solver (Rodinia defaults, arbitrary units).
STEP_DIV_CAP = 0.5
RX_INV = 0.1
RY_INV = 0.1
RZ_INV = 0.0625
AMB = 80.0


def build_kernel():
    """Assemble the 5-point thermal stencil kernel."""
    kb = KernelBuilder("hotspot")
    gid, x, y, xm, xp, ym, yp, addr = kb.regs(8)
    t, tn, ts, tw, te, pw, delta, tmp = kb.regs(8)
    kb.mov(gid, Sreg("gtid"))
    kb.imod(x, gid, DIM)
    kb.idiv(y, gid, DIM)
    # Clamped neighbour coordinates.
    kb.isub(xm, x, 1)
    kb.imax(xm, xm, 0)
    kb.iadd(xp, x, 1)
    kb.imin(xp, xp, DIM - 1)
    kb.isub(ym, y, 1)
    kb.imax(ym, ym, 0)
    kb.iadd(yp, y, 1)
    kb.imin(yp, yp, DIM - 1)
    # Loads.
    kb.ldg(t, gid, offset=TEMP_OFF)
    kb.ldg(pw, gid, offset=POWER_OFF)
    kb.imad(addr, ym, DIM, x)
    kb.ldg(tn, addr, offset=TEMP_OFF)
    kb.imad(addr, yp, DIM, x)
    kb.ldg(ts, addr, offset=TEMP_OFF)
    kb.imad(addr, y, DIM, xm)
    kb.ldg(tw, addr, offset=TEMP_OFF)
    kb.imad(addr, y, DIM, xp)
    kb.ldg(te, addr, offset=TEMP_OFF)
    # delta = step/cap * (P + (tn+ts-2t)*Ry^-1 + (tw+te-2t)*Rx^-1
    #                       + (amb-t)*Rz^-1)
    kb.fadd(delta, tn, ts)
    kb.ffma(delta, t, -2.0, delta)
    kb.fmul(delta, delta, RY_INV)
    kb.fadd(tmp, tw, te)
    kb.ffma(tmp, t, -2.0, tmp)
    kb.ffma(delta, tmp, RX_INV, delta)
    kb.fsub(tmp, AMB, t)
    kb.ffma(delta, tmp, RZ_INV, delta)
    kb.fadd(delta, delta, pw)
    kb.ffma(t, delta, STEP_DIV_CAP, t)
    kb.stg(t, gid, offset=OUT_OFF)
    kb.exit()
    return kb.build()


@register(BenchmarkInfo("hotspot", 1, "Processor temperature estimation",
                        "Rodinia"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    r = rng()
    temp = r.uniform(320.0, 340.0, DIM * DIM)
    power = r.uniform(0.0, 1.0, DIM * DIM)
    return [KernelLaunch(
        kernel=build_kernel(),
        grid=Dim3(GRID),
        block=Dim3(BLOCK),
        globals_init={TEMP_OFF: temp, POWER_OFF: power},
        gmem_words=3 * DIM * DIM,
        params={"dim": DIM},
        repeat=100,
    )]


def reference(temp: np.ndarray, power: np.ndarray) -> np.ndarray:
    """One clamped 5-point stencil step."""
    t = temp.reshape(DIM, DIM)
    p = power.reshape(DIM, DIM)
    tn = np.vstack([t[:1], t[:-1]])
    ts = np.vstack([t[1:], t[-1:]])
    tw = np.hstack([t[:, :1], t[:, :-1]])
    te = np.hstack([t[:, 1:], t[:, -1:]])
    delta = (p + (tn + ts - 2 * t) * RY_INV + (tw + te - 2 * t) * RX_INV
             + (AMB - t) * RZ_INV)
    return (t + STEP_DIV_CAP * delta).ravel()
