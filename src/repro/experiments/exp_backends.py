"""Cross-backend validation report (the backend seam's contract).

Three comparisons, all through
:func:`repro.backends.validation.compare_backends`:

* ``cycle`` vs ``functional_ref`` must agree **exactly** -- same
  timing engine, different functional layer, so any disagreement is a
  bug in one of the functional implementations;
* ``cycle`` vs ``analytical`` differ by model error: the analytical
  estimator trades the per-cycle loop for closed-form throughput/latency
  bounds, and this report quantifies what that costs in activity and
  total-power accuracy on the Table IV suite;
* ``cycle`` vs ``parallel_cycle`` differ by *relaxation* error: the
  sharded backend replays every instruction but models cross-shard
  contention through epoch barriers, so cycle counts (and the power
  that follows from activity rates) drift by the epoch contract's
  tolerance.  Measured on the GTX580, the chip with enough clusters to
  shard.

The JSON artifact (``backends.json``) is the report CI archives from
its ``backends`` job; the ``parallel`` CI job gates hard on the
relaxed comparison's mean errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from ..backends.validation import (BackendComparison, LadderRung,
                                   compare_backends, sweep_ladder)
from ..runner.engine import AUTO
from ..sim.config import gt240, gtx580

from . import base

#: Small suite for the exact-equivalence check (cheap, still covers
#: divergence, shared memory and multi-kernel variety).
EXACT_KERNELS = ["vectorAdd", "matrixMul", "bfs1"]

#: The Table IV power-dissection suite: the kernels the analytical
#: backend's accuracy is quoted on.
ESTIMATE_KERNELS = ["BlackScholes", "heartwall", "pathfinder", "hotspot"]


#: Shard count for the relaxed comparison (the GTX580's 16 clusters
#: split four ways, the configuration the benchmarks quote).
PARALLEL_SHARDS = 4


@dataclass
class BackendsResult:
    exact: BackendComparison      # cycle vs functional_ref
    estimate: BackendComparison   # cycle vs analytical
    relaxed: BackendComparison    # cycle vs parallel_cycle
    ladder: List[LadderRung]      # every estimator rung vs cycle


def run(jobs: Optional[int] = None, cache=AUTO,
        progress=None) -> BackendsResult:
    """Run the exact/estimate comparisons on the GT240 and the relaxed
    (sharded) comparison on the GTX580."""
    config = gt240()
    return BackendsResult(
        exact=compare_backends(config, EXACT_KERNELS,
                               backend_a="cycle",
                               backend_b="functional_ref",
                               jobs=jobs, cache=cache,
                               progress=progress),
        estimate=compare_backends(config, ESTIMATE_KERNELS,
                                  backend_a="cycle",
                                  backend_b="analytical",
                                  jobs=jobs, cache=cache,
                                  progress=progress),
        relaxed=compare_backends(gtx580(), ESTIMATE_KERNELS,
                                 backend_a="cycle",
                                 backend_b="parallel_cycle",
                                 backend_b_options={
                                     "n_shards": PARALLEL_SHARDS},
                                 jobs=jobs, cache=cache,
                                 progress=progress),
        ladder=sweep_ladder(gtx580(), ESTIMATE_KERNELS,
                            jobs=jobs, cache=cache, progress=progress),
    )


def format_table(result: BackendsResult) -> str:
    lines = []
    ex = result.exact
    lines.append(f"cycle vs functional_ref ({ex.config_name}): "
                 f"{'EXACT' if ex.exact_match else 'MISMATCH'}")
    for k in ex.kernels:
        tag = "ok" if k.exact_match else "DIFFERS"
        lines.append(f"  {k.kernel:<14s}{k.cycles_a:>12.0f} cycles  {tag}")
    lines.append("")
    est = result.estimate
    lines.append(f"cycle vs analytical ({est.config_name}): "
                 f"mean |power err| {est.mean_abs_power_error * 100:.1f}%, "
                 f"max {est.max_abs_power_error * 100:.1f}%")
    lines.append(f"{'kernel':<14s}{'cyc cycles':>12s}{'ana cycles':>12s}"
                 f"{'cyc W':>9s}{'ana W':>9s}{'err':>8s}")
    for k in est.kernels:
        lines.append(f"{k.kernel:<14s}{k.cycles_a:>12.0f}"
                     f"{k.cycles_b:>12.0f}{k.power_a_w:>9.2f}"
                     f"{k.power_b_w:>9.2f}"
                     f"{k.power_rel_error * 100:>7.1f}%")
    if est.speedup is not None:
        lines.append(f"fresh-run speedup: {est.speedup:.1f}x")
    lines.append("")
    rel = result.relaxed
    lines.append(f"cycle vs parallel_cycle ({rel.config_name}, "
                 f"{PARALLEL_SHARDS} shards): "
                 f"mean |cycle err| {rel.mean_abs_cycles_error * 100:.2f}%, "
                 f"mean |power err| {rel.mean_abs_power_error * 100:.2f}%")
    lines.append(f"{'kernel':<14s}{'serial cyc':>12s}{'shard cyc':>12s}"
                 f"{'cyc err':>9s}{'pwr err':>9s}")
    for k in rel.kernels:
        lines.append(f"{k.kernel:<14s}{k.cycles_a:>12.0f}"
                     f"{k.cycles_b:>12.0f}"
                     f"{k.cycles_rel_error * 100:>8.2f}%"
                     f"{k.power_rel_error * 100:>8.2f}%")
    lines.append("")
    lines.append("fidelity ladder vs cycle (GTX580, Table IV suite):")
    lines.append(f"{'tier':>4s}  {'backend':<14s}{'promised':>9s}"
                 f"{'mean err':>9s}{'max err':>9s}")
    for rung in result.ladder:
        cmp_ = rung.comparison
        lines.append(f"{rung.tier:>4d}  {rung.backend:<14s}"
                     f"{rung.expected_error * 100:>8.1f}%"
                     f"{cmp_.mean_abs_power_error * 100:>8.1f}%"
                     f"{cmp_.max_abs_power_error * 100:>8.1f}%")
    return "\n".join(lines)


def write_report(result: BackendsResult, out_dir: Path) -> List[Path]:
    """Write the machine-readable comparison report (CI artifact)."""
    path = Path(out_dir) / "backends.json"
    payload = {"exact": result.exact.to_dict(),
               "estimate": result.estimate.to_dict(),
               "relaxed": result.relaxed.to_dict(),
               "ladder": [rung.to_dict() for rung in result.ladder]}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return [path]


EXPERIMENT = base.register(base.Experiment(
    name="backends",
    description="cross-backend validation: exact twin + analytical error "
                "+ sharded relaxation error",
    compute=run,
    render=format_table,
    artifacts=write_report,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
