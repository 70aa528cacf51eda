"""Table II: key features of the evaluated GPU architectures.

Regenerates the paper's configuration summary from the actual preset
objects, so any drift between the presets and the paper is visible.
"""

from __future__ import annotations

from typing import Dict

from ..sim.config import GPUConfig, gt240, gtx580

from . import base

#: The paper's Table II, for comparison in tests and reports.
PAPER_TABLE2 = {
    "GT240": {"cores": 12, "threads_per_core": 768, "fus_per_core": 8,
              "uncore_mhz": 550, "shader_to_uncore": 2.47,
              "warps_in_flight": 24, "scoreboard": False,
              "l2_kbytes": 0, "process_nm": 40},
    "GTX580": {"cores": 16, "threads_per_core": 1536, "fus_per_core": 32,
               "uncore_mhz": 882, "shader_to_uncore": 2.0,
               "warps_in_flight": 48, "scoreboard": True,
               "l2_kbytes": 768, "process_nm": 40},
}


def config_row(config: GPUConfig) -> Dict[str, float]:
    """One Table II column derived from a configuration object."""
    return {
        "cores": config.n_cores,
        "threads_per_core": config.max_threads_per_core,
        "fus_per_core": config.n_fp_lanes,
        "uncore_mhz": round(config.uncore_clock_hz / 1e6),
        "shader_to_uncore": round(config.shader_to_uncore, 2),
        "warps_in_flight": config.max_warps_per_core,
        "scoreboard": config.has_scoreboard,
        "l2_kbytes": config.l2_size // 1024,
        "process_nm": round(config.process_nm),
    }


def run(jobs=None, cache=None,
        progress=None) -> Dict[str, Dict[str, float]]:
    """Regenerate Table II from the presets."""
    return {cfg.name: config_row(cfg) for cfg in (gt240(), gtx580())}


def format_table(rows: Dict[str, Dict[str, float]]) -> str:
    """Render the result as an aligned text table."""
    features = list(next(iter(rows.values())))
    lines = ["Table II: key features of the evaluated architectures",
             f"{'Feature':<20s}" + "".join(f"{g:>12s}" for g in rows)]
    for feat in features:
        lines.append(f"{feat:<20s}"
                     + "".join(f"{str(rows[g][feat]):>12s}" for g in rows))
    return "\n".join(lines)


EXPERIMENT = base.register(base.Experiment(
    name="table2",
    description="Table II: key features of the evaluated GPU architectures",
    compute=run,
    render=format_table,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
