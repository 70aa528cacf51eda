"""Experiment: static analysis over every bundled workload.

Runs the :mod:`repro.analysis` pipeline on all kernel launches, then
the static-vs-dynamic memory cross-check on the kernels whose
addresses resolve statically.  The artifact (``analysis.json``) is the
machine-readable record CI archives: per-kernel diagnostics plus the
static-prediction-vs-observed-counter deltas -- the evidence that the
analyzer's memory model and the simulator's agree wherever both speak.

The two cross-check simulations run the cycle backend directly (the
static side needs nothing but the kernel), so this driver does not go
through :mod:`repro.runner`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from ..analysis import analyze_launch
from ..analysis.crosscheck import compare_static_dynamic
from ..analysis.diagnostics import Severity
from ..sim.config import preset
from ..workloads import all_kernel_launches
from .base import Experiment, register

#: Kernels pinned for the cross-check: conflict-free reference
#: (vectoradd) plus a known-conflicted one (matmul) so both verdict
#: polarities are exercised.
CROSSCHECK_KERNELS = ("vectorAdd", "matrixMul")

#: GPU preset the analysis runs against (the paper's primary target).
GPU = "GT240"


def run(jobs=None, cache=None, progress=None) -> Dict[str, Any]:
    """Analyze every bundled kernel and cross-check the pinned pair.

    Static analysis needs no simulation; the ``(jobs, cache, progress)``
    trio is the uniform registry signature and is unused here.
    """
    del jobs, cache, progress
    config = preset(GPU)
    launches = all_kernel_launches()
    kernels: List[Dict[str, Any]] = []
    for label in sorted(launches):
        result = analyze_launch(launches[label], config)
        errors = sum(d.severity >= Severity.ERROR
                     for d in result.diagnostics)
        warnings = sum(d.severity == Severity.WARNING
                       for d in result.diagnostics)
        kernels.append({
            "kernel": label,
            "errors": errors,
            "warnings": warnings,
            "infos": len(result.diagnostics) - errors - warnings,
            "passes": result.passes_run,
            "diagnostics": [d.to_dict() for d in result.diagnostics],
        })
    crosschecks = []
    for label in CROSSCHECK_KERNELS:
        if label not in launches:
            continue
        crosschecks.append(
            compare_static_dynamic(launches[label], config).to_dict())
    return {
        "gpu": GPU,
        "kernels": kernels,
        "crosschecks": crosschecks,
        "clean": all(k["errors"] == 0 for k in kernels),
        "crosschecks_agree": all(c["agree"] is not False
                                 for c in crosschecks),
    }


def format_table(result: Dict[str, Any]) -> str:
    """Human-readable summary of the analysis sweep."""
    lines = [f"Static analysis over bundled workloads ({result['gpu']})",
             "",
             f"{'kernel':<16s}{'errors':>8s}{'warnings':>10s}"
             f"{'infos':>7s}"]
    for k in result["kernels"]:
        lines.append(f"{k['kernel']:<16s}{k['errors']:>8d}"
                     f"{k['warnings']:>10d}{k['infos']:>7d}")
    lines.append("")
    for c in result["crosschecks"]:
        verdict = {True: "agree", False: "DISAGREE",
                   None: "not comparable"}[c["agree"]]
        lines.append(f"cross-check {c['kernel']}: {verdict}")
        for chk in c["checks"]:
            lines.append(f"  {chk['check']}: "
                         f"{'ok' if chk['ok'] else 'MISMATCH'} "
                         f"({chk})")
    lines.append("")
    lines.append(f"all kernels error-free: {result['clean']}")
    lines.append(f"cross-checks agree: {result['crosschecks_agree']}")
    return "\n".join(lines)


def _artifacts(result: Dict[str, Any], out_dir: Path) -> List[Path]:
    path = out_dir / "analysis.json"
    path.write_text(json.dumps(result, indent=2) + "\n",
                    encoding="utf-8")
    return [path]


EXPERIMENT = register(Experiment(
    name="analysis",
    description="static kernel analysis + static-vs-dynamic cross-check",
    compute=run,
    render=format_table,
    artifacts=_artifacts,
))
