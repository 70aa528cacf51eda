"""Cycle-level SIMT GPU performance simulator (GPGPU-Sim substitute)."""

from .activity import ActivityReport
from .config import GPUConfig, gt240, gtx580, preset
from .core import Core, SimulationDeadlock
from .gpu import GPU, SimulationOutput, simulate
from .sanitizer import Sanitizer, attach_diagnostics

__all__ = [
    "ActivityReport", "GPUConfig", "gt240", "gtx580", "preset",
    "Core", "SimulationDeadlock", "GPU", "SimulationOutput",
    "Sanitizer", "attach_diagnostics", "simulate",
]
