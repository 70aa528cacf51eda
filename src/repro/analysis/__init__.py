"""Static analysis of SIMT kernels: verifier, race detector, lints.

The package is a small pass-based analyzer over :mod:`repro.isa`
kernels (see ARCHITECTURE.md section 9).  Typical entry points::

    from repro.analysis import analyze_launch
    result = analyze_launch(launch, config)
    for d in result.diagnostics:
        print(d.format())

or, end to end against the simulator::

    from repro.analysis import compare_static_dynamic
    cross = compare_static_dynamic(launch, config)
    assert cross.agree is not False
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .._lazy import lazy_exports
from ..isa.launch import KernelLaunch
from ..isa.serialize import kernel_digest
from ..sim.config import GPUConfig
from .framework import (AnalysisResult, LaunchShape, Pass, run_passes,
                        shape_for_launch)
# The default pipeline's passes load with the package: analyze_launch
# (below) runs them, and the service lints every submission with it.
from .divergence import DivergencePass
from .memlints import MemoryLintPass
from .races import SmemRacePass
from .uninit import UninitSharedPass
from .verifier import CfgVerifierPass, StructuralVerifierPass

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".crosscheck": ("RULE_GROUPS", "RULE_PAIRS", "CrossCheckResult",
                    "compare_static_dynamic", "grade_rules"),
    ".diagnostics": ("RULES", "Diagnostic", "Rule", "Severity", "diag",
                     "diagnostics_to_json", "format_diagnostics",
                     "has_errors", "max_severity"),
    ".divergence": ("DivergencePass",),
    ".framework": ("AnalysisManager", "AnalysisResult", "LaunchShape",
                   "Pass", "default_passes", "run_passes",
                   "shape_for_launch"),
    ".fuzz": ("FuzzCase", "FuzzReport", "KernelFuzzer", "run_fuzz"),
    ".memlints": ("MemoryLintPass", "SitePrediction", "StaticMemReport",
                  "predict_memory"),
    ".races": ("SmemRacePass",),
    ".symeval": ("BarrierFact", "BranchFact", "MemAccess",
                 "SymbolicEvaluator", "SymbolicFacts"),
    ".uninit": ("UninitSharedPass",),
    ".verifier": ("CfgVerifierPass", "StructuralVerifierPass"),
})
__all__ += ["analyze_kernel", "analyze_launch"]


def analyze_kernel(kernel, shape: LaunchShape,
                   passes: Optional[Sequence[Pass]] = None
                   ) -> AnalysisResult:
    """Run the analyzer pipeline over a bare kernel + launch shape."""
    return run_passes(kernel, shape, passes)


#: Default-pipeline results by (kernel encoding digest, shape).  Cleared
#: when full, so a daemon fed an endless stream of fresh kernels keeps a
#: bounded memo.
_RESULT_MEMO: Dict[Tuple[str, LaunchShape], AnalysisResult] = {}
_RESULT_MEMO_LIMIT = 1024


def analyze_launch(launch: KernelLaunch,
                   config: Optional[GPUConfig] = None,
                   passes: Optional[Sequence[Pass]] = None
                   ) -> AnalysisResult:
    """Run the analyzer pipeline over a kernel launch descriptor.

    The default pipeline (``passes is None``) is memoised: its verdict
    depends only on the kernel and the launch shape, never on the
    memory images, so launches sharing a kernel
    (:func:`~repro.isa.serialize.kernel_digest`, every instruction
    field included) and a shape share one result.  Callers must treat
    it as read-only.
    """
    cfg = config if config is not None else GPUConfig()
    shape = shape_for_launch(launch, cfg)
    if passes is not None:
        return run_passes(launch.kernel, shape, passes)
    key = (kernel_digest(launch.kernel), shape)
    result = _RESULT_MEMO.get(key)
    if result is None:
        result = run_passes(launch.kernel, shape)
        if len(_RESULT_MEMO) >= _RESULT_MEMO_LIMIT:
            _RESULT_MEMO.clear()
        _RESULT_MEMO[key] = result
    return result
