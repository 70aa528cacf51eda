"""SIMD execution unit pipelines (INT, FP, SFU).

Paper, Section III-C3: "The GPU has a set of SIMD execution units which
execute the warp threads in lock step.  For example, the SIMT core in
the NVIDIA GT240 has eight fully pipelined floating point units, eight
pipelined integer units and two special function units."

A warp instruction occupies its unit group for ``warp_size / lanes``
issue slots (e.g. 32 threads over 8 lanes = 4 cycles) and completes after
the pipeline latency.  Units are fully pipelined: a new warp may enter
every ``occupancy`` cycles, i.e. once ``free_at <= now``.  The issue
slot (:meth:`repro.sim.core.Core._issue`) occupies a group and counts
its activity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .config import GPUConfig


@dataclass
class _UnitGroup:
    """One pipelined SIMD unit group."""

    lanes: int
    occupancy: int      # issue slots one warp instruction blocks
    latency: int        # issue-to-writeback shader cycles
    free_at: float = 0.0
    warp_instructions: int = 0
    lane_ops: int = 0


class ExecutionUnits:
    """Timing and lane-level activity of a core's INT/FP/SFU groups."""

    def __init__(self, config: GPUConfig) -> None:
        warp = config.warp_size
        self.groups: Dict[str, _UnitGroup] = {
            "int": _UnitGroup(
                lanes=config.n_int_lanes,
                occupancy=max(1, warp // config.n_int_lanes),
                latency=config.alu_latency_cycles,
            ),
            "fp": _UnitGroup(
                lanes=config.n_fp_lanes,
                occupancy=max(1, warp // config.n_fp_lanes),
                latency=config.alu_latency_cycles,
            ),
            "sfu": _UnitGroup(
                lanes=config.n_sfu,
                occupancy=max(1, warp // config.n_sfu),
                latency=config.sfu_latency_cycles,
            ),
        }

    def lane_ops(self, unit: str) -> int:
        return self.groups[unit].lane_ops
