"""Static-vs-dynamic cross-checking of the memory predictions.

The memory lints replicate the simulator's own bank-conflict and
coalescing models on statically resolved addresses, so whenever the
static side declares a site *comparable*, the prediction and the
cycle backend's :class:`~repro.sim.activity.ActivityReport` must
agree -- any gap means the address resolution (or the counter
plumbing) is wrong.  That makes this harness a correctness oracle in
both directions, the same role cross-validation against a reference
plays for accelerated simulators (GATSPI; "Parallelizing a modern GPU
simulator", PAPERS.md).

Compared quantities are per-access ratios, because static analysis
cannot know dynamic trip counts:

* shared: predicted conflict-free  <=>  ``smem_conflict_cycles == 0``;
* global: observed ``mem_transactions / coalescer_accesses`` must lie
  within the static per-site [min, max] transaction-per-access bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..backends.base import DEFAULT_BACKEND, get_backend
from ..isa.launch import KernelLaunch
from ..sim.config import GPUConfig
from .framework import AnalysisManager, shape_for_launch
from .memlints import StaticMemReport, predict_memory


@dataclass
class CrossCheckResult:
    """Agreement record for one kernel launch.

    ``agree`` is None when nothing was comparable (static analysis
    could not resolve the addresses), True/False otherwise.
    """

    kernel: str
    static: Dict[str, Any] = field(default_factory=dict)
    dynamic: Dict[str, Any] = field(default_factory=dict)
    checks: List[Dict[str, Any]] = field(default_factory=list)
    agree: Optional[bool] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"kernel": self.kernel, "agree": self.agree,
                "static": self.static, "dynamic": self.dynamic,
                "checks": self.checks}


def compare_static_dynamic(launch: KernelLaunch, config: GPUConfig,
                           backend: str = DEFAULT_BACKEND,
                           max_cycles: float = 5e8) -> CrossCheckResult:
    """Run one launch and pin static predictions to observed counters."""
    shape = shape_for_launch(launch, config)
    am = AnalysisManager(launch.kernel, shape)
    report: StaticMemReport = predict_memory(am.symbolic, shape,
                                             launch.kernel.name)
    output = get_backend(backend).simulate(config, launch,
                                           max_cycles=max_cycles)
    act = output.activity

    result = CrossCheckResult(kernel=launch.kernel.name)
    result.static = {
        "smem_comparable": report.smem_comparable,
        "smem_conflict_free": report.smem_conflict_free,
        "global_comparable": report.global_comparable,
        "global_txn_bounds": report.global_txn_bounds(),
        "sites": [{"pc": s.pc, "op": s.op, "space": s.space,
                   "comparable": s.comparable, "phases": s.phases,
                   "txn_per_access": s.transactions_per_access}
                  for s in report.sites],
    }
    result.dynamic = {
        "smem_conflict_cycles": act.smem_conflict_cycles,
        "bank_conflict_checks": act.bank_conflict_checks,
        "coalescer_accesses": act.coalescer_accesses,
        "mem_transactions": act.mem_transactions,
    }

    checks: List[Dict[str, Any]] = []
    has_smem = any(s.space == "shared" for s in report.sites)
    if has_smem and report.smem_comparable:
        observed_free = act.smem_conflict_cycles == 0
        checks.append({
            "check": "smem_conflict_free",
            "predicted": report.smem_conflict_free,
            "observed": observed_free,
            "ok": report.smem_conflict_free == observed_free,
        })
    bounds = report.global_txn_bounds()
    if report.global_comparable and bounds is not None \
            and act.coalescer_accesses > 0:
        observed = act.mem_transactions / act.coalescer_accesses
        lo, hi = bounds
        checks.append({
            "check": "global_txn_per_access",
            "predicted_bounds": [lo, hi],
            "observed": observed,
            "ok": lo - 1e-9 <= observed <= hi + 1e-9,
        })
    result.checks = checks
    result.agree = all(c["ok"] for c in checks) if checks else None
    return result


# ---------------------------------------------------------------------------
# Grading static rules against sanitizer ground truth
# ---------------------------------------------------------------------------

#: Static rule -> the sanitizer rule serving as its ground truth.
#: R003 (address not analyzable / undecidable) counts as a *race
#: prediction* for grading: the analyzer declined to prove safety.
RULE_PAIRS: Dict[str, str] = {
    "R001": "S003",
    "R002": "S003",
    "R003": "S003",
    "M003": "S002",
    "U001": "S001",
}

#: Grading groups: several static rules can legitimately fire for one
#: dynamic phenomenon (a write-write race is R001 *or* an undecidable
#: R003), so recall is judged per group -- did *any* paired static
#: rule predict the observed dynamic finding?
RULE_GROUPS: Dict[str, Dict[str, Any]] = {
    "races": {"static": ("R001", "R002", "R003"), "dynamic": "S003"},
    "bounds": {"static": ("M003",), "dynamic": "S002"},
    "uninit_shared": {"static": ("U001",), "dynamic": "S001"},
}


def _score(tp: int, fp: int, fn: int) -> Dict[str, Any]:
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return {"tp": tp, "fp": fp, "fn": fn,
            "precision": precision, "recall": recall}


def grade_rules(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Precision/recall of static rules against sanitizer ground truth.

    Each record describes one fuzzed (or curated) kernel run both ways:
    ``{"static_rules": <iterable of rule ids the analyzer fired>,
    "dynamic_rules": <iterable the sanitizer fired>}`` (extra keys pass
    through untouched).  Counting is per *kernel*, not per finding --
    the two sides aggregate differently (the sanitizer collapses
    identical races across blocks, the analyzer reports per site), so
    the comparable unit is "did this rule fire on this kernel at all".

    Returns ``{"cases": n, "rules": {rule: row}, "groups": {name:
    row}}`` where each row carries tp/fp/fn and precision/recall
    (None when undefined, i.e. the denominator is empty).  Per-rule
    rows grade a rule's own firings; group rows answer the question
    the fuzzer gates on -- e.g. for ``races``, every dynamically
    observed S003 must have been predicted by *some* race rule
    (recall 1.0 means the static analyzer has no race false
    negatives).
    """
    per_rule = {rule: {"tp": 0, "fp": 0, "fn": 0}
                for rule in RULE_PAIRS}
    per_group = {name: {"tp": 0, "fp": 0, "fn": 0}
                 for name in RULE_GROUPS}
    for rec in records:
        static = set(rec.get("static_rules", ()))
        dynamic = set(rec.get("dynamic_rules", ()))
        for rule, truth in RULE_PAIRS.items():
            if rule in static:
                bucket = "tp" if truth in dynamic else "fp"
                per_rule[rule][bucket] += 1
            elif truth in dynamic:
                per_rule[rule]["fn"] += 1
        for name, group in RULE_GROUPS.items():
            predicted = any(r in static for r in group["static"])
            observed = group["dynamic"] in dynamic
            if predicted:
                bucket = "tp" if observed else "fp"
                per_group[name][bucket] += 1
            elif observed:
                per_group[name]["fn"] += 1
    return {
        "cases": len(records),
        "rules": {rule: _score(**counts)
                  for rule, counts in sorted(per_rule.items())},
        "groups": {name: _score(**counts)
                   for name, counts in sorted(per_group.items())},
    }
