"""GPUSimPow public API: the coupled performance + power simulator."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".gpusimpow": ("ArchitectureReport", "BenchmarkResult", "GPUSimPow",
                   "SimulationResult"),
    ".metrics": ("EfficiencyMetrics", "UtilizationMetrics",
                 "compare_energy"),
    ".statmodel": ("StatisticalPowerModel",),
    ".validation": ("SuiteValidation", "validate_suite"),
})
