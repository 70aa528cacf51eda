"""BlackScholes -- Black-Scholes PDE option pricing (CUDA SDK).

The paper's power-profile example (Table V).  Each thread prices one
option: logarithms, square roots and exponentials on the SFUs, a long
polynomial cumulative-normal-distribution evaluation on the FPUs, with
only two loads and two stores per thread -- a compute-bound kernel whose
power lives in the execution units and register file.

Pricing constants (riskfree rate, volatility, CND polynomial
coefficients) live in constant memory and are broadcast through the
constant cache.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

N = 4096
BLOCK = 128

S_OFF = 0          # stock price
X_OFF = N          # strike
T_OFF = 2 * N      # time to expiry
CALL_OFF = 3 * N
PUT_OFF = 4 * N

#: Constant-memory layout.
RISKFREE = 0.02
VOLATILITY = 0.30
CND_A = (0.31938153, -0.356563782, 1.781477937, -1.821255978, 1.330274429)
#: const[0]=R, const[1]=V, const[2..6]=a1..a5, const[7]=1/sqrt(2*pi)
CONSTANTS = np.array([RISKFREE, VOLATILITY, *CND_A, 0.3989422804014327])


def build_kernel():
    """Assemble the BlackScholes option-pricing kernel."""
    kb = KernelBuilder("BlackScholes")
    gid, s, x, t, czero = kb.regs(5)
    r_rate, vol, inv_s2pi = kb.regs(3)
    sqrt_t, d1, d2, tmp, tmp2, k = kb.regs(6)
    cnd1, cnd2, expm, call, put = kb.regs(5)
    a = kb.regs(5)
    p = kb.pred()

    kb.mov(gid, Sreg("gtid"))
    kb.ldg(s, gid, offset=S_OFF)
    kb.ldg(x, gid, offset=X_OFF)
    kb.ldg(t, gid, offset=T_OFF)
    kb.mov(czero, 0)
    kb.ldc(r_rate, czero, offset=0)
    kb.ldc(vol, czero, offset=1)
    for idx in range(5):
        kb.ldc(a[idx], czero, offset=2 + idx)
    kb.ldc(inv_s2pi, czero, offset=7)

    # d1 = (log(S/X) + (R + 0.5 V^2) T) / (V sqrt(T))
    kb.sqrt(sqrt_t, t)
    kb.fdiv(tmp, s, x)
    kb.log2(tmp, tmp)
    kb.fmul(tmp, tmp, 0.6931471805599453)  # ln from log2
    kb.fmul(tmp2, vol, vol)
    kb.fmul(tmp2, tmp2, 0.5)
    kb.fadd(tmp2, tmp2, r_rate)
    kb.ffma(tmp, tmp2, t, tmp)
    kb.fmul(tmp2, vol, sqrt_t)
    kb.fdiv(d1, tmp, tmp2)
    kb.fsub(d2, d1, tmp2)

    def cnd(dst, d):
        """Cumulative normal distribution via the Abramowitz-Stegun
        5-term polynomial (the CUDA SDK formulation)."""
        kb.fabs(tmp, d)
        kb.ffma(tmp2, tmp, 0.2316419, 1.0)
        kb.rcp(k, tmp2)
        # poly = K(a1 + K(a2 + K(a3 + K(a4 + K a5))))  (Horner)
        kb.fmul(tmp2, k, a[4])
        kb.fadd(tmp2, tmp2, a[3])
        kb.fmul(tmp2, tmp2, k)
        kb.fadd(tmp2, tmp2, a[2])
        kb.fmul(tmp2, tmp2, k)
        kb.fadd(tmp2, tmp2, a[1])
        kb.fmul(tmp2, tmp2, k)
        kb.fadd(tmp2, tmp2, a[0])
        kb.fmul(tmp2, tmp2, k)
        # pdf = inv_s2pi * exp(-d^2/2) = inv_s2pi * 2^(-d^2/2 * log2(e))
        kb.fmul(tmp, d, d)
        kb.fmul(tmp, tmp, -0.5 * 1.4426950408889634)
        kb.exp2(tmp, tmp)
        kb.fmul(tmp, tmp, inv_s2pi)
        kb.fmul(dst, tmp, tmp2)
        # if d > 0: cnd = 1 - cnd
        kb.setp("gt", p, d, 0.0, fp=True)
        kb.fsub(tmp, 1.0, dst)
        kb.selp(dst, tmp, dst, p)

    cnd(cnd1, d1)
    cnd(cnd2, d2)

    # expm = exp(-R T); call = S*cnd1 - X*expm*cnd2; put = call - S + X*expm
    kb.fmul(tmp, r_rate, t)
    kb.fmul(tmp, tmp, -1.4426950408889634)
    kb.exp2(expm, tmp)
    kb.fmul(tmp, x, expm)
    kb.fmul(tmp2, tmp, cnd2)
    kb.fmul(call, s, cnd1)
    kb.fsub(call, call, tmp2)
    kb.fsub(put, call, s)
    kb.fadd(put, put, tmp)
    kb.stg(call, gid, offset=CALL_OFF)
    kb.stg(put, gid, offset=PUT_OFF)
    kb.exit()
    return kb.build()


def make_inputs() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic workload inputs."""
    r = rng()
    s = r.uniform(5.0, 30.0, N)
    x = r.uniform(1.0, 100.0, N)
    t = r.uniform(0.25, 10.0, N)
    return s, x, t


@register(BenchmarkInfo("blackscholes", 1, "Black-Scholes PDE solver",
                        "CUDA SDK"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    s, x, t = make_inputs()
    return [KernelLaunch(
        kernel=build_kernel(),
        grid=Dim3(N // BLOCK),
        block=Dim3(BLOCK),
        globals_init={S_OFF: s, X_OFF: x, T_OFF: t},
        const_init=CONSTANTS,
        gmem_words=5 * N,
        params={"n_options": N},
        repeat=100,
    )]


def _cnd(d: np.ndarray) -> np.ndarray:
    k = 1.0 / (1.0 + 0.2316419 * np.abs(d))
    a1, a2, a3, a4, a5 = CND_A
    poly = k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5))))
    res = 0.3989422804014327 * np.exp(-0.5 * d * d) * poly
    return np.where(d > 0, 1.0 - res, res)


def reference(s: np.ndarray, x: np.ndarray, t: np.ndarray):
    """Numpy reference (call, put) prices."""
    sqrt_t = np.sqrt(t)
    d1 = (np.log(s / x) + (RISKFREE + 0.5 * VOLATILITY ** 2) * t) / (
        VOLATILITY * sqrt_t)
    d2 = d1 - VOLATILITY * sqrt_t
    expm = np.exp(-RISKFREE * t)
    call = s * _cnd(d1) - x * expm * _cnd(d2)
    put = call - s + x * expm
    return call, put
