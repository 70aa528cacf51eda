"""Table IV: static power and area for GT240 and GTX580.

Simulated values come from the GPGPU-Pow chip representation; "real"
values come from the virtual hardware via the paper's measurement
methodologies (frequency extrapolation for the GT240, idle-ratio
transfer for the GTX580) plus the cards' published die sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.gpusimpow import GPUSimPow
from ..hw.static_power import (static_power_by_extrapolation,
                               static_power_by_idle_ratio)
from ..hw.virtual_gpu import UnsupportedByDriver
from ..request import SimRequest
from ..runner.engine import AUTO, run_jobs
from ..sim.config import gt240, gtx580
from ..workloads import all_kernel_launches

from . import base

#: Published die areas of the physical chips (mm^2) -- the "Real" area
#: rows of Table IV (GT215: 133 mm^2, GF110: 520 mm^2).
REAL_AREA_MM2 = {"GT240": 133.0, "GTX580": 520.0}

#: Paper's Table IV for comparison.
PAPER_TABLE4 = {
    "GT240": {"sim_static_w": 17.9, "real_static_w": 17.6,
              "sim_area_mm2": 105.0, "real_area_mm2": 133.0},
    "GTX580": {"sim_static_w": 81.5, "real_static_w": 80.0,
               "sim_area_mm2": 306.0, "real_area_mm2": 520.0},
}


@dataclass
class Table4Row:
    gpu: str
    sim_static_w: float
    real_static_w: float
    sim_area_mm2: float
    real_area_mm2: float


def run(seed: int = 29, jobs=None, cache=AUTO,
        progress=None) -> Dict[str, Table4Row]:
    """Regenerate Table IV."""
    launches = all_kernel_launches()
    probe_launch = launches["BlackScholes"]
    rows: Dict[str, Table4Row] = {}
    gt240_ratio = None
    configs = (gt240(), gtx580())
    # One probe simulation per card; both go through the runner so the
    # (identical) activity is cached across exp_table4 / exp_fig6 runs.
    probes = run_jobs([SimRequest(config=c, kernel="BlackScholes",
                                  launch=probe_launch) for c in configs],
                      n_jobs=jobs, cache=cache, progress=progress)
    for config, probe in zip(configs, probes):
        sim = GPUSimPow(config)
        arch = sim.architecture()
        activity = probe.activity
        try:
            hw_static, p1, _ = static_power_by_extrapolation(
                config, activity, seed=seed)
            # Also derive the static/idle transfer ratio on this card.
            from ..hw.virtual_gpu import VirtualGPU
            gt240_ratio = hw_static / VirtualGPU(config).active_idle_w
        except UnsupportedByDriver:
            if gt240_ratio is None:
                raise RuntimeError("run the GT240 first to calibrate the "
                                   "idle-ratio methodology")
            hw_static = static_power_by_idle_ratio(config, activity,
                                                   gt240_ratio, seed=seed)
        rows[config.name] = Table4Row(
            gpu=config.name,
            sim_static_w=arch.static_power_w,
            real_static_w=hw_static,
            sim_area_mm2=arch.area_mm2,
            real_area_mm2=REAL_AREA_MM2[config.name],
        )
    return rows


def format_table(rows: Dict[str, Table4Row]) -> str:
    """Render the result as an aligned text table."""
    lines = ["Table IV: static power and area",
             f"{'GPU':<8s}{'':<12s}{'Static [W]':>12s}{'Area [mm^2]':>14s}"]
    for gpu, row in rows.items():
        lines.append(f"{gpu:<8s}{'Simulated':<12s}"
                     f"{row.sim_static_w:>12.1f}{row.sim_area_mm2:>14.0f}")
        lines.append(f"{'':<8s}{'Real':<12s}"
                     f"{row.real_static_w:>12.1f}{row.real_area_mm2:>14.0f}")
    return "\n".join(lines)


EXPERIMENT = base.register(base.Experiment(
    name="table4",
    description="Table IV: static power and area for GT240 and GTX580",
    compute=run,
    render=format_table,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
