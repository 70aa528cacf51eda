"""Power over time for a Table I benchmark (the Fig. 5 view).

The paper's testbed samples real card power at 31.2 kHz while kernels
run; this experiment is the simulated counterpart: BlackScholes on the
GT240 traced with the telemetry layer, each activity window evaluated
through the unchanged GPGPU-Pow model, rendered as a power-over-time
figure with the per-component breakdown.  The simulation goes through
the pooled runner, so traced windows ride the content-addressed result
cache like any other artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from ..core.gpusimpow import GPUSimPow
from ..request import SimRequest
from ..runner.engine import AUTO, run_jobs
from ..sim.config import gt240
from ..telemetry.export import (render_trace, write_chrome_trace,
                                write_trace_json)
from ..telemetry.trace import PowerTrace
from ..workloads import all_kernel_launches

from . import base

#: The traced benchmark kernel (Table I) and window length.
DEFAULT_KERNEL = "BlackScholes"
DEFAULT_INTERVAL_CYCLES = 500.0


@dataclass
class PowerTraceResult:
    """The traced run plus the settings that produced it."""

    kernel: str
    gpu: str
    interval_cycles: float
    trace: PowerTrace


def run(kernel: str = DEFAULT_KERNEL,
        interval_cycles: float = DEFAULT_INTERVAL_CYCLES,
        jobs: Optional[int] = None, cache=AUTO,
        progress=None) -> PowerTraceResult:
    """Trace ``kernel`` on the GT240 through the pooled runner."""
    config = gt240()
    launch = all_kernel_launches()[kernel]
    job, = run_jobs([SimRequest(config=config, kernel=kernel, launch=launch,
                                trace_interval=interval_cycles)],
                    n_jobs=jobs, cache=cache, progress=progress)
    result = GPUSimPow(config).run(job)
    assert result.trace is not None
    return PowerTraceResult(kernel=kernel, gpu=config.name,
                            interval_cycles=interval_cycles,
                            trace=result.trace)


def format_table(r: PowerTraceResult) -> str:
    """The power-over-time figure plus a per-window breakdown table."""
    trace = r.trace
    lines = [render_trace(trace), ""]
    lines.append(f"{'win':>4s}{'t_start us':>12s}{'t_end us':>11s}"
                 f"{'chip W':>9s}{'DRAM W':>8s}{'card W':>8s}")
    for s in trace.samples:
        lines.append(f"{s.index:>4d}{s.start_s * 1e6:>12.2f}"
                     f"{s.end_s * 1e6:>11.2f}{s.chip_total_w:>9.2f}"
                     f"{s.dram_w:>8.2f}{s.card_w:>8.2f}")
    lines.append(
        f"(window = {trace.interval_cycles:.0f} shader cycles; summed "
        f"window deltas reconstruct the aggregate activity exactly)")
    return "\n".join(lines)


def write_artifacts(r: PowerTraceResult, out_dir: Path) -> List[Path]:
    """The trace itself, in both export formats."""
    json_path = out_dir / f"powertrace_{r.kernel}.json"
    chrome_path = out_dir / f"powertrace_{r.kernel}.chrome.json"
    write_trace_json(r.trace, json_path)
    write_chrome_trace(r.trace, chrome_path)
    return [json_path, chrome_path]


EXPERIMENT = base.register(base.Experiment(
    name="powertrace",
    description="Power over time for a Table I benchmark (Fig. 5 view)",
    compute=run,
    render=format_table,
    artifacts=write_artifacts,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
