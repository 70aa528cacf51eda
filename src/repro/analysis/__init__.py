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

from ..isa.launch import KernelLaunch
from ..isa.serialize import kernel_digest
from ..sim.config import GPUConfig
from .crosscheck import (RULE_GROUPS, RULE_PAIRS, CrossCheckResult,
                         compare_static_dynamic, grade_rules,
                         shape_for_launch)
from .diagnostics import (RULES, Diagnostic, Rule, Severity, diag,
                          diagnostics_to_json, format_diagnostics,
                          has_errors, max_severity)
from .divergence import DivergencePass
from .framework import (AnalysisManager, AnalysisResult, LaunchShape,
                        Pass, default_passes, run_passes)
from .fuzz import FuzzCase, FuzzReport, KernelFuzzer, run_fuzz
from .memlints import (MemoryLintPass, SitePrediction, StaticMemReport,
                       predict_memory)
from .races import SmemRacePass
from .symeval import (BarrierFact, BranchFact, MemAccess, SymbolicEvaluator,
                      SymbolicFacts)
from .uninit import UninitSharedPass
from .verifier import CfgVerifierPass, StructuralVerifierPass

__all__ = [
    "AnalysisManager", "AnalysisResult", "BarrierFact", "BranchFact",
    "CfgVerifierPass", "CrossCheckResult", "Diagnostic",
    "DivergencePass", "FuzzCase", "FuzzReport", "KernelFuzzer",
    "LaunchShape", "MemAccess", "MemoryLintPass",
    "Pass", "RULES", "RULE_GROUPS", "RULE_PAIRS", "Rule", "Severity",
    "SitePrediction", "SmemRacePass", "StaticMemReport",
    "StructuralVerifierPass", "SymbolicEvaluator", "SymbolicFacts",
    "UninitSharedPass", "analyze_kernel",
    "analyze_launch", "compare_static_dynamic", "default_passes",
    "diag", "diagnostics_to_json", "format_diagnostics", "grade_rules",
    "has_errors", "max_severity", "predict_memory", "run_fuzz",
    "run_passes", "shape_for_launch",
]


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
