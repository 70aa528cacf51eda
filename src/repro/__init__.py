"""GPUSimPow reproduction: a GPGPU power simulator (ISPASS 2013).

Reproduces Lucas, Lal, Andersch, Alvarez-Mesa, Juurlink: "How a Single
Chip Causes Massive Power Bills -- GPUSimPow: A GPGPU Power Simulator".

Quickstart::

    from repro import GPUSimPow, gt240
    from repro.workloads import all_kernel_launches

    sim = GPUSimPow(gt240())
    result = sim.run(all_kernel_launches()["BlackScholes"])
    print(result.power.gpu.format())

Package map:

* :mod:`repro.isa` -- mini SIMT instruction set + kernel builder
* :mod:`repro.analysis` -- static kernel verifier, race detector, lints,
  and the differential kernel fuzzer that grades them
* :mod:`repro.sim` -- cycle-level GPGPU performance simulator + runtime
  sanitizer (shadow-memory race/uninit/bounds checking)
* :mod:`repro.power` -- GPGPU-Pow hierarchical power model
* :mod:`repro.hw` -- virtual hardware + measurement testbed
* :mod:`repro.workloads` -- the 19 evaluation kernels of Table I
* :mod:`repro.core` -- the GPUSimPow facade and validation harness
* :mod:`repro.runner` -- parallel simulation jobs + on-disk result cache
* :mod:`repro.telemetry` -- windowed activity sampling + power traces
* :mod:`repro.backends` -- pluggable simulation backends (cycle,
  functional_ref, analytical, parallel_cycle)
* :mod:`repro.fleet` -- fleet-scale scenarios: diurnal load, virtual
  GPUs, per-phase energy ledgers, kWh / $ / CO2 bills
* :mod:`repro.experiments` -- per-table/figure reproduction drivers
"""

from ._lazy import lazy_exports

#: Simulator-semantics version tag, embedded in every runner cache key.
#: The package imports nothing else eagerly, so any module can read it
#: (``from .. import SIM_VERSION``) without loading the subpackages.
#:
#: Bump rule: increment whenever a change alters simulation *results* --
#: activity counters, timing, functional values, or anything else the
#: power model consumes -- as opposed to pure performance, packaging or
#: reporting changes.  A bump makes every existing cache entry miss, so
#: stale entries can never silently poison validation numbers.
SIM_VERSION = "2013.1"

__version__ = "1.10.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analysis": ("analyze_kernel", "analyze_launch"),
    ".analysis.crosscheck": ("compare_static_dynamic", "grade_rules"),
    ".analysis.diagnostics": ("Diagnostic", "Severity"),
    ".analysis.framework": ("AnalysisResult", "LaunchShape"),
    ".analysis.fuzz": ("FuzzReport", "run_fuzz"),
    ".backends.base": ("AUTO_BACKEND", "BackendInfo", "SimulationBackend",
                       "escalation_path", "get_backend", "ladder",
                       "list_backends", "register_backend",
                       "resolve_backend"),
    ".core.gpusimpow": ("ArchitectureReport", "GPUSimPow",
                        "SimulationResult"),
    ".core.validation": ("SuiteValidation", "validate_suite"),
    ".fleet.ledger": ("FleetLedger",),
    ".fleet.load": ("TenantProfile",),
    ".fleet.report": ("FleetReport",),
    ".fleet.scenario": ("FleetScenario", "run_scenario"),
    ".power.chip": ("Chip",),
    ".power.result": ("PowerNode", "PowerReport"),
    ".request": ("SimRequest",),
    ".runner.cache": ("ResultCache",),
    ".runner.engine": ("RunnerError", "run_jobs", "set_fault_plan"),
    ".runner.job": ("JobFailure", "JobResult", "SimJob"),
    ".sim.config": ("GPUConfig", "gt240", "gtx580", "preset"),
    ".sim.sanitizer": ("Sanitizer",),
    ".telemetry.sink": ("ActivityTracer", "CollectingSink", "NullSink",
                        "TraceSink"),
    ".telemetry.trace": ("PowerSample", "PowerTrace"),
    ".telemetry.window": ("ActivityWindow", "sum_windows"),
})
__all__.append("SIM_VERSION")
