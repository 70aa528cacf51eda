"""Microbenchmarks for empirical model derivation (Section III-D).

Two instruments, both reproduced faithfully:

* **Energy per INT/FP operation** -- "In the loop nest of our integer
  test code, we are simulating Linear Shift Feedback Registers while for
  the floating point case we are using Mandelbrot set iterations.  In
  both cases, we are alternately configuring the test kernels to use 31
  enabled threads per warp and 1 enabled thread per warp.  Both
  configurations have the same execution time.  We then calculate the
  energy difference between these two kernel launches and divide the
  result by the number of executed instructions, number of cores and
  difference in execution units enabled."

* **Cluster staircase (Fig. 4)** -- "running the same kernel 12 times
  with increasing number of thread blocks": the block scheduler fills
  clusters breadth-first, so the first blocks each light up a new
  cluster (+0.692 W) and the very first also the global scheduler
  (+3.34 W), while later blocks only add core power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from ..sim.config import GPUConfig
from ..sim.gpu import GPU
from .measure import MeasurementTool
from .testbed import Testbed
from .virtual_gpu import VirtualGPU

#: Threads per block, per the paper ("512 threads per block to ensure
#: all cores and targeted execution units are busy").
MB_BLOCK = 512

#: Unrolled body operations per loop iteration.
UNROLL = 8
LFSR_OPS_PER_UNROLL = 3      # shr, xor, shl-free variant below uses 3 ops
MANDEL_OPS_PER_UNROLL = 6

#: Loop iterations.
ITERS = 4


def lfsr_kernel(enabled_lanes: int) -> KernelBuilder:
    """Galois LFSR stepping, guarded to ``enabled_lanes`` per warp."""
    kb = KernelBuilder(f"ubench_int_{enabled_lanes}")
    lane, x, t, i = kb.regs(4)
    p_en = kb.pred()
    p = kb.pred()
    kb.mov(lane, Sreg("laneid"))
    kb.setp("lt", p_en, lane, enabled_lanes)
    kb.mov(x, Sreg("gtid"))
    kb.iadd(x, x, 0xACE1)
    kb.mov(i, 0)
    kb.label("loop")
    for _ in range(UNROLL):
        # x ^= x >> 7; x ^= x << 9 (masked); x ^= x >> 13  -> 3 counted
        # INT ops per unrolled step (shift+xor pairs fused for brevity).
        kb.shr(t, x, 7, guard=(p_en, True))
        kb.xor(x, x, t, guard=(p_en, True))
        kb.shr(t, x, 13, guard=(p_en, True))
    kb.iadd(i, i, 1)
    kb.setp("lt", p, i, ITERS)
    kb.bra("loop", pred=p)
    kb.stg(x, lane, offset=0, guard=(p_en, True))
    kb.exit()
    return kb


def mandelbrot_kernel(enabled_lanes: int) -> KernelBuilder:
    """Mandelbrot z <- z^2 + c iterations, guarded to ``enabled_lanes``."""
    kb = KernelBuilder(f"ubench_fp_{enabled_lanes}")
    lane, zr, zi, cr, ci, t1, t2, i = kb.regs(8)
    p_en = kb.pred()
    p = kb.pred()
    kb.mov(lane, Sreg("laneid"))
    kb.setp("lt", p_en, lane, enabled_lanes)
    kb.mov(zr, 0.1)
    kb.mov(zi, 0.1)
    kb.mov(cr, -0.3)
    kb.mov(ci, 0.4)
    kb.mov(i, 0)
    kb.label("loop")
    for _ in range(UNROLL):
        # zr' = zr^2 - zi^2 + cr ; zi' = 2 zr zi + ci -> 6 FP ops.
        kb.fmul(t1, zr, zr, guard=(p_en, True))
        kb.fmul(t2, zi, zi, guard=(p_en, True))
        kb.fsub(t1, t1, t2, guard=(p_en, True))
        kb.fmul(t2, zr, zi, guard=(p_en, True))
        kb.ffma(zi, t2, 2.0, ci, guard=(p_en, True))
        kb.fadd(zr, t1, cr, guard=(p_en, True))
    kb.iadd(i, i, 1)
    kb.setp("lt", p, i, ITERS)
    kb.bra("loop", pred=p)
    kb.stg(zr, lane, offset=0, guard=(p_en, True))
    kb.exit()
    return kb


def _launch(config: GPUConfig, kb: KernelBuilder) -> KernelLaunch:
    return KernelLaunch(
        kernel=kb.build(),
        grid=Dim3(config.n_cores),  # one block per core (paper setup)
        block=Dim3(MB_BLOCK),
        gmem_words=1 << 12,
    )


@dataclass
class EnergyPerOpResult:
    """Derived per-operation energy and its ingredients."""

    kind: str
    energy_per_op_j: float
    energy_hi_j: float
    energy_lo_j: float
    ops_difference: float


def derive_energy_per_op(config: GPUConfig, kind: str,
                         seed: int = 3) -> EnergyPerOpResult:
    """Run the 31-vs-1-lane differential experiment on the virtual card.

    Returns the estimated energy per executed operation per execution
    unit, following the paper's arithmetic.
    """
    builder = {"int": lfsr_kernel, "fp": mandelbrot_kernel}[kind]
    launches = {}
    activities = {}
    for lanes in (31, 1):
        launch = _launch(config, builder(lanes))
        out = GPU(config).run(launch)
        launches[lanes] = launch
        activities[lanes] = out.activity

    vgpu = VirtualGPU(config)
    bed = Testbed(vgpu, seed=seed)
    capture = bed.run_session([
        ("hi", activities[31], 100),
        ("lo", activities[1], 100),
    ])
    tool = MeasurementTool(capture)
    results = {m.name: m for m in tool.kernel_measurements()}
    # Normalise both phases to the same wall duration (they have the
    # same per-run execution time; repeats may differ).
    hi, lo = results["hi"], results["lo"]
    e_hi = hi.avg_power_w * hi.duration_s / hi.repeats
    e_lo = lo.avg_power_w * lo.duration_s / lo.repeats

    counter = "int_ops" if kind == "int" else "fp_ops"
    ops_diff = (getattr(activities[31], counter)
                - getattr(activities[1], counter))
    if ops_diff <= 0:
        raise RuntimeError("lane differential produced no op difference")
    per_op = (e_hi - e_lo) / ops_diff
    return EnergyPerOpResult(
        kind=kind,
        energy_per_op_j=per_op,
        energy_hi_j=e_hi,
        energy_lo_j=e_lo,
        ops_difference=ops_diff,
    )


def run_cluster_staircase(config: GPUConfig,
                          seed: int = 5) -> List[Tuple[int, float]]:
    """Fig. 4: measure card power for 1..n_cores thread blocks.

    Returns (blocks, measured average power) pairs; the plateaus step by
    the global-scheduler power, then the cluster activation power, then
    only per-core power, as the breadth-first block distribution lights
    the chip up.
    """
    kernel = mandelbrot_kernel(32).build()
    points: List[Tuple[int, float]] = []
    session = []
    acts = []
    for blocks in range(1, config.n_cores + 1):
        launch = KernelLaunch(kernel=kernel, grid=Dim3(blocks),
                              block=Dim3(MB_BLOCK), gmem_words=1 << 12)
        out = GPU(config).run(launch)
        acts.append((blocks, out.activity))
        session.append((f"blocks{blocks}", out.activity, 100))
    bed = Testbed(VirtualGPU(config), seed=seed)
    tool = MeasurementTool(bed.run_session(session))
    for blocks, _ in acts:
        points.append((blocks, tool.kernel_power(f"blocks{blocks}")))
    return points
