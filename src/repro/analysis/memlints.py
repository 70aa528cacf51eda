"""Static memory-access lints (rules M001, M002) and predictions.

Both lints re-run the *dynamic* models of the simulator on statically
resolved per-warp address vectors, so a static prediction and a
dynamic observation can only disagree when the address resolution
itself is wrong -- that is the invariant the cross-check harness
(:mod:`repro.analysis.crosscheck`) pins against
:class:`~repro.sim.activity.ActivityReport` counters:

* **Bank conflicts** replicate :class:`repro.sim.smem.SharedMemory`:
  per warp, distinct word addresses grouped by ``addr % n_banks``;
  the largest bucket is the phase count.  A uniform base shift
  permutes the banks bijectively, so phase counts are valid even when
  the base is a loop-carried unknown.
* **Coalescing** replicates :class:`repro.sim.coalescer.Coalescer`:
  one transaction per distinct aligned segment.  Segment grouping is
  *not* shift-invariant in general, so the prediction is only offered
  when the unknown base coefficients are whole segments (then the
  shift moves all lanes into equally-aligned segments) or when the
  address fully resolves per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .diagnostics import Diagnostic, diag
from .framework import AnalysisManager, LaunchShape, Pass
from .symeval import MemAccess, SymbolicFacts


@dataclass
class SitePrediction:
    """Static prediction for one memory instruction.

    Attributes:
        pc: The instruction.
        op: Opcode.
        space: "shared" or "global".
        comparable: The prediction is sound for this site (addresses
            resolved, shift-invariance argument applies).
        phases: Shared only -- worst per-warp serialization phases
            (1 = conflict-free).
        transactions_per_access: Global only -- mean transactions per
            executed warp access.
        ideal_transactions_per_access: Global only -- minimum possible
            given lane count and segment size.
    """

    pc: int
    op: str
    space: str
    comparable: bool
    phases: int = 1
    transactions_per_access: float = 0.0
    ideal_transactions_per_access: float = 0.0


@dataclass
class StaticMemReport:
    """All per-site predictions for one kernel."""

    kernel: str
    sites: List[SitePrediction] = field(default_factory=list)

    @property
    def smem_comparable(self) -> bool:
        """Every shared access has a sound conflict prediction."""
        shared = [s for s in self.sites if s.space == "shared"]
        return all(s.comparable for s in shared)

    @property
    def smem_conflict_free(self) -> bool:
        return all(s.phases <= 1 for s in self.sites
                   if s.space == "shared" and s.comparable)

    @property
    def global_comparable(self) -> bool:
        gl = [s for s in self.sites if s.space == "global"]
        return bool(gl) and all(s.comparable for s in gl)

    def global_txn_bounds(self) -> Optional[tuple]:
        """(min, max) predicted transactions per warp access."""
        ratios = [s.transactions_per_access for s in self.sites
                  if s.space == "global" and s.comparable]
        if not ratios:
            return None
        return min(ratios), max(ratios)


def _warp_slices(mask: np.ndarray, warp_size: int) -> List[np.ndarray]:
    """Per-warp boolean lane masks covering the block."""
    out = []
    for start in range(0, len(mask), warp_size):
        w = np.zeros(len(mask), dtype=bool)
        w[start:start + warp_size] = True
        w &= mask
        if w.any():
            out.append(w)
    return out


def predict_smem_site(acc: MemAccess, shape: LaunchShape) -> SitePrediction:
    """Worst-case per-warp bank phases for one shared access."""
    pred = SitePrediction(pc=acc.pc, op=acc.op, space="shared",
                          comparable=False)
    if not acc.analyzable:
        return pred
    assert acc.addr_vec is not None
    # A uniform shift permutes banks bijectively, so the phase count is
    # base-independent -- provided the shift is a whole number of
    # words, which holds when every unknown coefficient is integral.
    if any(c != int(c) for c in acc.addr_syms.values()):
        return pred
    pred.comparable = True
    worst = 1
    for w in _warp_slices(acc.mask, shape.warp_size):
        addrs = acc.addr_vec[w].astype(np.int64)
        distinct = np.unique(addrs)
        if len(distinct) == 0:
            continue
        _banks, counts = np.unique(distinct % shape.smem_banks,
                                   return_counts=True)
        worst = max(worst, int(counts.max()))
    pred.phases = worst
    return pred


def predict_global_site(acc: MemAccess,
                        shape: LaunchShape) -> SitePrediction:
    """Mean transactions per warp access for one global access."""
    pred = SitePrediction(pc=acc.pc, op=acc.op, space="global",
                          comparable=False)
    if not acc.analyzable:
        return pred
    assert acc.addr_vec is not None
    seg_words = shape.coalesce_segment_bytes // shape.word_bytes
    # Segment grouping shifts with the base, so a sound prediction
    # needs every unknown coefficient to be a whole number of
    # segments (the shift then maps segments to segments).
    if any(c != int(c) or int(c) % seg_words != 0
           for c in acc.addr_syms.values()):
        return pred
    pred.comparable = True
    total_txns = 0
    total_ideal = 0.0
    warps = _warp_slices(acc.mask, shape.warp_size)
    for w in warps:
        addrs = acc.addr_vec[w].astype(np.int64)
        total_txns += len(np.unique(addrs // seg_words))
        total_ideal += max(1.0, np.ceil(len(addrs) / seg_words))
    n = max(1, len(warps))
    pred.transactions_per_access = total_txns / n
    pred.ideal_transactions_per_access = total_ideal / n
    return pred


def predict_memory(facts: SymbolicFacts, shape: LaunchShape,
                   kernel_name: str) -> StaticMemReport:
    """Static bank-conflict and coalescing predictions for a kernel."""
    report = StaticMemReport(kernel=kernel_name)
    for acc in facts.smem_accesses():
        report.sites.append(predict_smem_site(acc, shape))
    for acc in facts.global_accesses():
        report.sites.append(predict_global_site(acc, shape))
    return report


class MemoryLintPass(Pass):
    """Turn the predictions into M001/M002 diagnostics."""

    name = "memory-lints"
    needs_cfg = True

    def run(self, am: AnalysisManager) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        report = predict_memory(am.symbolic, am.shape, am.kernel.name)
        for site in report.sites:
            if site.space == "shared" and site.comparable \
                    and site.phases > 1:
                out.append(diag(
                    "M001", am.kernel.name,
                    f"{site.op} serializes into {site.phases} phases "
                    f"on {am.shape.smem_banks} banks "
                    f"({site.phases}-way bank conflict)",
                    pc=site.pc, phases=site.phases))
            if site.space == "global" and site.comparable \
                    and site.ideal_transactions_per_access > 0 \
                    and site.transactions_per_access \
                    >= 2 * site.ideal_transactions_per_access:
                out.append(diag(
                    "M002", am.kernel.name,
                    f"{site.op} needs "
                    f"{site.transactions_per_access:.1f} transactions "
                    f"per warp access where "
                    f"{site.ideal_transactions_per_access:.0f} would "
                    f"suffice (poor coalescing)",
                    pc=site.pc,
                    transactions=site.transactions_per_access,
                    ideal=site.ideal_transactions_per_access))
        return out
