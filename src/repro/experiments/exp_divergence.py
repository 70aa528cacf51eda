"""Branch-divergence power analysis (the §V-B investigation the paper
mentions but omits "for reasons of conciseness").

"GPUSimPow enables even more detailed analysis, e.g. ... investigating
the power impact of code sections with branch divergence on each
hardware unit in detail."

Three kernels compute the *same per-thread result* (a lane-dependent
polynomial blend) with increasing divergence:

* ``uniform``   -- branch-free, SELP-predicated;
* ``two_way``   -- one if/else splitting each warp in half;
* ``per_lane``  -- a 4-way switch serialising each warp into 4 groups.

The experiment reports, per variant, the runtime, the per-unit dynamic
power, and the energy -- quantifying how divergence shifts power from
useful execution into the front-end (replayed issues, stack traffic)
while stretching runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.gpusimpow import GPUSimPow
from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from ..sim.config import gt240

from . import base

N = 4096
BLOCK = 128
REPEATS = 24     # polynomial steps per variant arm


def _emit_arm(kb, acc, x, coeff):
    for _ in range(REPEATS):
        kb.ffma(acc, acc, coeff, x)


def build_uniform():
    """Branch-free variant: both arms computed, SELP-selected."""
    kb = KernelBuilder("div_uniform")
    gid, x, acc, acc2, sel = kb.regs(5)
    p = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    kb.ldg(x, gid, offset=0)
    kb.mov(acc, 1.0)
    kb.mov(acc2, 1.0)
    # Compute both arms in every lane, select by parity (predication).
    _emit_arm(kb, acc, x, 0.5)
    _emit_arm(kb, acc2, x, -0.5)
    kb.and_(sel, gid, 1)
    kb.setp("eq", p, sel, 0)
    kb.selp(acc, acc, acc2, p)
    kb.stg(acc, gid, offset=N)
    kb.exit()
    return kb.build()


def build_two_way():
    """One if/else splitting each warp in half."""
    kb = KernelBuilder("div_two_way")
    gid, x, acc, sel = kb.regs(4)
    p = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    kb.ldg(x, gid, offset=0)
    kb.mov(acc, 1.0)
    kb.and_(sel, gid, 1)
    kb.setp("eq", p, sel, 0)
    kb.bra("odd", pred=p, sense=False)
    _emit_arm(kb, acc, x, 0.5)
    kb.jmp("join")
    kb.label("odd")
    _emit_arm(kb, acc, x, -0.5)
    kb.label("join")
    kb.stg(acc, gid, offset=N)
    kb.exit()
    return kb.build()


def build_four_way():
    """Four-way switch serialising each warp into 4 groups."""
    kb = KernelBuilder("div_four_way")
    gid, x, acc, sel = kb.regs(4)
    p = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    kb.ldg(x, gid, offset=0)
    kb.mov(acc, 1.0)
    kb.and_(sel, gid, 3)
    coeffs = (0.5, -0.5, 0.25, -0.25)
    for idx in range(4):
        kb.setp("eq", p, sel, idx)
        kb.bra(f"skip{idx}", pred=p, sense=False)
        _emit_arm(kb, acc, x, coeffs[idx])
        kb.label(f"skip{idx}")
    kb.stg(acc, gid, offset=N)
    kb.exit()
    return kb.build()


def reference(data: np.ndarray, four_way: bool) -> np.ndarray:
    """Numpy reference of the per-thread polynomial blend."""
    lanes = np.arange(len(data))
    acc = np.ones(len(data))
    if four_way:
        coeffs = np.choose(lanes % 4, [0.5, -0.5, 0.25, -0.25])
    else:
        coeffs = np.where(lanes % 2 == 0, 0.5, -0.5)
    for _ in range(REPEATS):
        acc = acc * coeffs + data
    return acc


@dataclass
class DivergencePoint:
    variant: str
    cycles: float
    divergent_branches: float
    stack_ops: float
    energy_uj: float
    unit_dynamic_w: Dict[str, float]


def run(jobs=None, cache=None,
        progress=None) -> List[DivergencePoint]:
    """Simulate the three variants and collect per-unit power."""
    rng = np.random.default_rng(6)
    data = rng.uniform(-1, 1, N)
    sim = GPUSimPow(gt240())
    points = []
    for name, kernel, four_way in (
        ("uniform (predicated)", build_uniform(), False),
        ("two-way divergent", build_two_way(), False),
        ("four-way divergent", build_four_way(), True),
    ):
        launch = KernelLaunch(kernel, Dim3(N // BLOCK), Dim3(BLOCK),
                              globals_init={0: data}, gmem_words=2 * N)
        result = sim.run(launch)
        got = result.performance.gmem[N:2 * N]
        expect = reference(data, four_way)
        assert np.allclose(got, expect), f"{name} computed wrong values"
        act = result.activity
        cores = result.power.gpu.child("Cores")
        units = {
            comp: cores.child(comp).total_dynamic_w
            for comp in ("WCU", "Register File", "Execution Units", "LDSTU")
        }
        points.append(DivergencePoint(
            variant=name,
            cycles=result.performance.cycles,
            divergent_branches=act.divergent_branches,
            stack_ops=act.stack_pushes + act.stack_pops,
            energy_uj=result.chip_total_w * result.runtime_s * 1e6,
            unit_dynamic_w=units,
        ))
    return points


def format_table(points: List[DivergencePoint]) -> str:
    """Render the result as an aligned text table."""
    lines = ["Branch-divergence power analysis (GT240, same computation)",
             f"{'variant':<22s}{'cycles':>8s}{'div.br':>7s}{'stack':>7s}"
             f"{'WCU W':>7s}{'exec W':>8s}{'energy uJ':>11s}"]
    for p in points:
        lines.append(
            f"{p.variant:<22s}{p.cycles:>8.0f}{p.divergent_branches:>7.0f}"
            f"{p.stack_ops:>7.0f}{p.unit_dynamic_w['WCU']:>7.2f}"
            f"{p.unit_dynamic_w['Execution Units']:>8.2f}"
            f"{p.energy_uj:>11.2f}"
        )
    lines.append(
        "-> the trade-off, quantified per unit: predicating both arms "
        "burns execution\n   energy in every lane; two-way divergence "
        "executes each arm once at half\n   occupancy (cheaper here, "
        "where arms are long); deeper divergence serialises\n   the warp "
        "-- execution power collapses while runtime, stack traffic and "
        "total\n   energy climb.")
    return "\n".join(lines)


EXPERIMENT = base.register(base.Experiment(
    name="divergence",
    description="Section V-B branch-divergence power analysis",
    compute=run,
    render=format_table,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
