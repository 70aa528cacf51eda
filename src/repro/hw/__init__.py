"""Virtual hardware and the power-measurement testbed (Section IV)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".daq": ("DAQ", "SAMPLE_RATE_HZ"),
    ".measure": ("KernelMeasurement", "MeasurementTool"),
    ".microbench": ("EnergyPerOpResult", "derive_energy_per_op",
                    "run_cluster_staircase"),
    ".sensors": ("ResistiveDivider", "ShuntMonitor"),
    ".static_power": ("gt240_static_idle_ratio",
                      "static_power_by_extrapolation",
                      "static_power_by_idle_ratio"),
    ".testbed": ("MeasurementCapture", "Testbed"),
    ".virtual_gpu": ("CARDS", "UnsupportedByDriver", "VirtualGPU"),
})
