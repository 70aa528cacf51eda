"""Cycle-level SIMT GPU performance simulator (GPGPU-Sim substitute)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".activity": ("ActivityReport",),
    ".config": ("GPUConfig", "gt240", "gtx580", "preset"),
    ".core": ("Core", "SimulationDeadlock"),
    ".gpu": ("GPU", "SimulationOutput", "simulate"),
    ".sanitizer": ("Sanitizer", "attach_diagnostics"),
})
