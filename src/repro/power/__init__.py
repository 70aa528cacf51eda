"""GPGPU-Pow: hierarchical (technology/circuit/architecture) power model."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".chip": ("Chip",),
    ".result": ("PowerNode", "PowerReport"),
    ".tech": ("TechNode", "tech_node"),
})
