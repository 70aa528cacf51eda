"""Table V: Blackscholes power breakdown on the GT240.

Two views, as in the paper: the whole-GPU breakdown (Cores / NoC /
Memory Controller / PCIe Controller with percentages of total) and the
per-core breakdown (Base Power / WCU / Register File / Execution Units /
LDSTU / Undifferentiated Core).  External DRAM power is reported
separately, matching the paper's footnote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.gpusimpow import GPUSimPow
from ..request import SimRequest
from ..runner.engine import AUTO, run_jobs
from ..sim.config import gt240
from ..workloads import all_kernel_launches

from . import base

#: Paper's Table V (static W, dynamic W) for comparison.
PAPER_GPU_LEVEL = {
    "Overall": (17.934, 19.207),
    "Cores": (15.393, 15.132),
    "NoC": (1.484, 1.229),
    "Memory Controller": (0.497, 1.753),
    "PCIe Controller": (0.539, 0.992),
}
PAPER_CORE_LEVEL = {
    "Overall": (1.283, 1.031),
    "Base Power": (0.0, 0.199),
    "WCU": (0.042, 0.089),
    "Register File": (0.112, 0.173),
    "Execution Units": (0.0096, 0.556),
    "LDSTU": (0.234, 0.014),
    "Undiff. Core": (0.886, 0.0),
}
PAPER_DRAM_W = 4.3


@dataclass
class Table5:
    """(static_w, dynamic_w) per row, plus the DRAM footnote."""

    gpu_level: Dict[str, Tuple[float, float]]
    core_level: Dict[str, Tuple[float, float]]
    dram_w: float
    kernel: str = "BlackScholes"


def run(benchmark: str = "BlackScholes", jobs=None, cache=AUTO,
        progress=None) -> Table5:
    """Regenerate Table V for ``benchmark`` on the GT240."""
    config = gt240()
    sim = GPUSimPow(config)
    launch = all_kernel_launches()[benchmark]
    job, = run_jobs([SimRequest(config=config, kernel=benchmark,
                                launch=launch)],
                    n_jobs=jobs, cache=cache, progress=progress)
    result = sim.run(job)
    gpu = result.power.gpu
    cores = gpu.child("Cores")

    gpu_level = {"Overall": (gpu.total_static_w, gpu.total_dynamic_w),
                 "Cores": (cores.total_static_w, cores.total_dynamic_w)}
    for name in ("NoC", "Memory Controller", "PCIe Controller"):
        node = gpu.child(name)
        gpu_level[name] = (node.total_static_w, node.total_dynamic_w)

    n = config.n_cores
    # The paper's per-core "Base Power" row covers the per-core empirical
    # base; the cluster/scheduler share is inside the Cores aggregate.
    core_level = {
        "Overall": ((cores.total_static_w) / n,
                    (cores.total_dynamic_w
                     - cores.child("Cluster/Scheduler Base").total_dynamic_w)
                    / n),
    }
    for name in ("Base Power", "WCU", "Register File", "Execution Units",
                 "LDSTU", "Undiff. Core"):
        node = cores.child(name)
        core_level[name] = (node.total_static_w / n,
                            node.total_dynamic_w / n)
    return Table5(
        gpu_level=gpu_level,
        core_level=core_level,
        dram_w=result.power.dram.total_dynamic_w,
        kernel=benchmark,
    )


def format_table(t: Table5) -> str:
    """Render the two-level Table V layout."""
    def pct(rows, name):
        total = rows["Overall"][0] + rows["Overall"][1]
        s, d = rows[name]
        return 100.0 * (s + d) / total

    lines = [f"Table V: {t.kernel} power breakdown on GT240",
             f"{'Component':<22s}{'Static [W]':>12s}"
             f"{'Dynamic [W]':>13s}{'Percent':>9s}",
             "GPU"]
    for name, (s, d) in t.gpu_level.items():
        lines.append(f"  {name:<20s}{s:>12.3f}{d:>13.3f}"
                     f"{pct(t.gpu_level, name):>8.1f}%")
    lines.append("Core")
    for name, (s, d) in t.core_level.items():
        lines.append(f"  {name:<20s}{s:>12.4f}{d:>13.4f}"
                     f"{pct(t.core_level, name):>8.1f}%")
    lines.append(f"(external DRAM: {t.dram_w:.1f} W, reported separately)")
    return "\n".join(lines)


EXPERIMENT = base.register(base.Experiment(
    name="table5",
    description="Table V: BlackScholes power breakdown on the GT240",
    compute=run,
    render=format_table,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
