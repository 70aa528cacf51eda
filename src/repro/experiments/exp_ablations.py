"""Ablation studies over the design choices the paper's model exposes.

These go beyond the paper's tables: GPUSimPow's stated purpose is letting
"architects evaluate design choices early from a power perspective", so
each ablation flips one architectural knob and reports performance and
power through the unchanged pipeline:

* scoreboard vs. blocking barrel execution (the GT240/GTX580 frontend
  difference of Table II);
* register-file bank / operand-collector sweep;
* memory-access coalescing on vs. off;
* warp size sweep;
* process-node scaling via the ITRS-style technology tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.gpusimpow import GPUSimPow
from ..power.chip import Chip
from ..request import SimRequest
from ..runner.engine import AUTO, run_jobs
from ..sim.config import GPUConfig, gt240
from ..workloads import all_kernel_launches

from . import base


@dataclass
class AblationPoint:
    """One configuration's outcome on one kernel."""

    label: str
    kernel: str
    cycles: float
    chip_dynamic_w: float
    chip_total_w: float
    energy_mj: float

    @classmethod
    def measure(cls, label: str, config: GPUConfig,
                kernel: str) -> "AblationPoint":
        return _measure([(label, config, kernel)])[0]


def _measure(specs, jobs=None, cache=AUTO, progress=None):
    """Simulate ``(label, config, kernel)`` specs in one runner fan-out
    and evaluate the power model on each returned activity report."""
    launches = all_kernel_launches()
    sim_jobs = [SimRequest(config=config, kernel=kernel,
                           launch=launches[kernel], tag=label)
                for label, config, kernel in specs]
    points = []
    for (label, config, kernel), jr in zip(
            specs, run_jobs(sim_jobs, n_jobs=jobs, cache=cache,
                            progress=progress)):
        result = GPUSimPow(config).run(jr)
        points.append(AblationPoint(
            label=label,
            kernel=kernel,
            cycles=result.performance.cycles,
            chip_dynamic_w=result.chip_dynamic_w,
            chip_total_w=result.chip_total_w,
            energy_mj=result.chip_total_w * result.runtime_s * 1e3,
        ))
    return points


def _scoreboard_specs(kernel: str = "BlackScholes"):
    return [("barrel (no scoreboard)", gt240(), kernel),
            ("scoreboard", gt240().scaled(has_scoreboard=True), kernel)]


def _regfile_specs(kernel: str = "matrixMul"):
    return [(f"{banks} RF banks", gt240().scaled(regfile_banks=banks),
             kernel) for banks in (8, 16, 32)]


def _coalescing_specs(kernel: str = "hotspot"):
    return [("coalescing on", gt240(), kernel),
            ("coalescing off",
             gt240().scaled(coalescing_enabled=False), kernel)]


def _scheduler_specs(kernel: str = "matrixMul"):
    return [(f"scheduler {policy}",
             gt240().scaled(warp_scheduler=policy), kernel)
            for policy in ("rr", "gto", "two_level")]


def _warp_size_specs(kernel: str = "BlackScholes"):
    return [(f"warp {warp}", gt240().scaled(warp_size=warp), kernel)
            for warp in (16, 32, 64)]


def scoreboard_ablation(kernel: str = "BlackScholes") -> List[AblationPoint]:
    """Barrel (GT240 default) vs. scoreboarded front-end."""
    return _measure(_scoreboard_specs(kernel))


def regfile_ablation(kernel: str = "matrixMul") -> List[AblationPoint]:
    """Register file bank-count sweep (power-side sensitivity)."""
    return _measure(_regfile_specs(kernel))


def coalescing_ablation(kernel: str = "hotspot") -> List[AblationPoint]:
    """Coalescing on vs. off for a partially-coalesced stencil."""
    return _measure(_coalescing_specs(kernel))


def scheduler_ablation(kernel: str = "matrixMul") -> List[AblationPoint]:
    """Warp scheduling policy sweep (the paper's §VI future-work list
    names two-level scheduling as a candidate for power evaluation)."""
    return _measure(_scheduler_specs(kernel))


def warp_size_ablation(kernel: str = "BlackScholes") -> List[AblationPoint]:
    """Warp size sweep (divergence and frontend-rate effects)."""
    return _measure(_warp_size_specs(kernel))


@dataclass
class NodeScalingPoint:
    node_nm: float
    static_w: float
    area_mm2: float
    peak_dynamic_w: float


def node_scaling() -> List[NodeScalingPoint]:
    """The same GT240 architecture rendered at several process nodes."""
    points = []
    for node in (45.0, 40.0, 32.0, 28.0):
        chip = Chip(gt240().scaled(process_nm=node))
        points.append(NodeScalingPoint(
            node_nm=node,
            static_w=chip.static_power_w(),
            area_mm2=chip.area_mm2(),
            peak_dynamic_w=chip.peak_dynamic_w(),
        ))
    return points


def run(jobs=None, cache=AUTO, progress=None) -> Dict[str, list]:
    """Run every ablation; returns a dict of result lists.

    All simulation-backed ablations are gathered into a single runner
    fan-out so ``--jobs N`` parallelises across the whole sweep, not
    just within one study.
    """
    groups = [
        ("scoreboard", _scoreboard_specs()),
        ("scheduler", _scheduler_specs()),
        ("regfile_banks", _regfile_specs()),
        ("coalescing", _coalescing_specs()),
        ("warp_size", _warp_size_specs()),
    ]
    specs = [spec for _, group in groups for spec in group]
    points = _measure(specs, jobs=jobs, cache=cache, progress=progress)
    results: Dict[str, list] = {}
    offset = 0
    for name, group in groups:
        results[name] = points[offset:offset + len(group)]
        offset += len(group)
    results["node_scaling"] = node_scaling()
    return results


def format_table(results: Dict[str, list]) -> str:
    """Render the result as an aligned text table."""
    lines = ["Ablation studies (GT240 baseline)"]
    for name, points in results.items():
        lines.append(f"-- {name}")
        if name == "node_scaling":
            for p in points:
                lines.append(f"   {p.node_nm:4.0f} nm: "
                             f"static {p.static_w:6.2f} W"
                             f"  area {p.area_mm2:6.1f} mm^2"
                             f"  peak dyn {p.peak_dynamic_w:6.1f} W")
        else:
            for p in points:
                lines.append(f"   {p.label:<24s} [{p.kernel}] "
                             f"cycles {p.cycles:9.0f}"
                             f"  dyn {p.chip_dynamic_w:6.2f} W"
                             f"  total {p.chip_total_w:6.2f} W"
                             f"  energy {p.energy_mj:7.3f} mJ")
    return "\n".join(lines)


EXPERIMENT = base.register(base.Experiment(
    name="ablations",
    description="Ablation studies over the power model's design choices",
    compute=run,
    render=format_table,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
