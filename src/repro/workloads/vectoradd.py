"""vectoradd -- addition of two vectors (CUDA SDK).

The simplest memory-streaming kernel: each thread loads one element of A
and B and stores A+B.  Perfectly coalesced, no divergence, no shared
memory; dynamic power is dominated by the memory path and DRAM.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

N = 4096
BLOCK = 128

#: Word offsets of the input/output buffers in global memory.
A_OFF = 0
B_OFF = N
C_OFF = 2 * N


def build_kernel():
    """c[i] = a[i] + b[i]."""
    kb = KernelBuilder("vectorAdd")
    i, a, b, c = kb.regs(4)
    kb.mov(i, Sreg("gtid"))
    kb.ldg(a, i, offset=A_OFF)
    kb.ldg(b, i, offset=B_OFF)
    kb.fadd(c, a, b)
    kb.stg(c, i, offset=C_OFF)
    kb.exit()
    return kb.build()


@register(BenchmarkInfo("vectoradd", 1, "Addition of two vectors", "CUDA SDK"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    r = rng()
    a = r.standard_normal(N)
    b = r.standard_normal(N)
    return [KernelLaunch(
        kernel=build_kernel(),
        grid=Dim3(N // BLOCK),
        block=Dim3(BLOCK),
        globals_init={A_OFF: a, B_OFF: b},
        gmem_words=3 * N,
        params={"n": N},
        repeat=100,  # sub-500us kernel: measured 100x (Section IV-C)
    )]


def reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Numpy reference result for functional verification."""
    return a + b
