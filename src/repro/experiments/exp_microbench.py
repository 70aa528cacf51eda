"""Section III-D: empirical per-operation energy derivation.

Reproduces the 31-vs-1 enabled-lanes differential microbenchmarks on the
virtual GT240 through the full measurement chain.  The paper's results:
"integer instructions are using approximately 40 pJ while floating point
instructions are using about 75 pJ per instruction.  NVIDIA reports
50 pJ per floating point instruction."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.microbench import EnergyPerOpResult, derive_energy_per_op
from ..sim.config import GPUConfig, gt240

from . import base

PAPER_INT_PJ = 40.0
PAPER_FP_PJ = 75.0
NVIDIA_REPORTED_FP_PJ = 50.0


@dataclass
class MicrobenchResult:
    int_result: EnergyPerOpResult
    fp_result: EnergyPerOpResult

    @property
    def int_pj(self) -> float:
        return self.int_result.energy_per_op_j * 1e12

    @property
    def fp_pj(self) -> float:
        return self.fp_result.energy_per_op_j * 1e12


def run(config: GPUConfig | None = None, seed: int = 3,
        jobs=None, cache=None, progress=None) -> MicrobenchResult:
    """Derive the INT and FP per-operation energies on the virtual card."""
    config = config or gt240()
    return MicrobenchResult(
        int_result=derive_energy_per_op(config, "int", seed=seed),
        fp_result=derive_energy_per_op(config, "fp", seed=seed + 1),
    )


def format_table(r: MicrobenchResult) -> str:
    """Render the result as an aligned text table."""
    return "\n".join([
        "Section III-D: measured energy per execution-unit operation",
        f"  integer (LFSR microbenchmark):        {r.int_pj:6.1f} pJ "
        f"(paper ~{PAPER_INT_PJ:.0f} pJ)",
        f"  floating point (Mandelbrot iterate):  {r.fp_pj:6.1f} pJ "
        f"(paper ~{PAPER_FP_PJ:.0f} pJ; NVIDIA reports "
        f"{NVIDIA_REPORTED_FP_PJ:.0f} pJ)",
    ])


EXPERIMENT = base.register(base.Experiment(
    name="microbench",
    description="Section III-D per-operation energy microbenchmarks",
    compute=run,
    render=format_table,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
