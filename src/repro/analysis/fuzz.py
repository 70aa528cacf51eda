"""Verified kernel fuzzing: differential testing + analyzer grading.

Two jobs in one harness, both driven by the same seeded corpus of
random mini-ISA kernels:

1. **Differential testing of the engines.**  Every generated kernel
   runs on the ``cycle`` backend and on ``functional_ref`` (the scalar
   reference interpreter behind the same engine); results must match
   bit for bit -- activity counters, cycle count and the final memory
   image.  Kernels that fault must fault identically.  A slice of the
   corpus additionally runs on ``parallel_cycle`` (sanitized, multi-
   shard) to pin sanitizer determinism across engines, and a sample of
   clean cases runs the ``analytical`` estimator to report its power
   error distribution against exact ground truth.

2. **Grading the static analyzer.**  Each kernel is analyzed
   statically *and* executed under the runtime sanitizer; the per-case
   ``(static_rules, dynamic_rules)`` pairs feed
   :func:`~repro.analysis.crosscheck.grade_rules`, producing a
   precision/recall matrix of the R/M/U rules against S-rule ground
   truth.  The fuzzer's hard gate: the race group's recall is 1.0 --
   every dynamically observed race was statically predicted.

Generation is seeded and fully deterministic: case ``i`` of seed ``s``
is always the same kernel, so a failing case reproduces from its index
alone.  Address-forming registers derive only from special registers
and immediates -- data may race, addresses never do -- which keeps
every kernel's *access sets* engine-independent even when its loaded
values are not.  Racy flavors use single-warp blocks, so even their
data is deterministic (vector execution orders lanes of one warp
atomically), keeping the differential bit-exactness gate meaningful
over the whole corpus.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from ..sim.config import GPUConfig
from .crosscheck import grade_rules
from .diagnostics import Severity
from .framework import run_passes, shape_for_launch

#: Fuzz flavors with their selection weights.
FLAVORS: Tuple[Tuple[str, int], ...] = (
    ("clean", 40), ("racy", 25), ("uninit", 20), ("oob", 15),
)

#: Large prime stride separating per-case RNG streams.
_SEED_STRIDE = 1_000_003

#: Safe two-operand float ALU ops for random computation chains
#: (closed over finite float64 inputs; no division, no int conversion).
_ALU_OPS = ("fadd", "fsub", "fmul", "fmin", "fmax")


@dataclass
class FuzzCase:
    """One generated kernel plus everything needed to judge it."""

    name: str
    flavor: str
    index: int
    launch: KernelLaunch
    #: Whether execution is expected to abort (out-of-bounds access).
    expect_fault: bool = False


class KernelFuzzer:
    """Seeded property-based generator over the mini SIMT ISA.

    Case ``i`` derives from ``random.Random(seed * stride + i)``, so
    cases are independent and reproducible individually -- the corpus
    needs no sequential generation state.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def case(self, index: int) -> FuzzCase:
        rng = random.Random(self.seed * _SEED_STRIDE + index)
        flavor = rng.choices([f for f, _ in FLAVORS],
                             weights=[w for _, w in FLAVORS])[0]
        name = f"fuzz_{flavor}_{index}"
        build = getattr(self, f"_gen_{flavor}")
        launch, expect_fault = build(name, rng)
        return FuzzCase(name=name, flavor=flavor, index=index,
                        launch=launch, expect_fault=expect_fault)

    # -- flavor generators ----------------------------------------------------

    @staticmethod
    def _launch(kernel, grid: int, threads: int, n_inputs: int,
                n_outputs: int, rng: random.Random) -> KernelLaunch:
        """Launch with a seeded input image covering ``n_inputs`` words."""
        data = np.array([rng.uniform(1.0, 2.0) for _ in range(n_inputs)],
                        dtype=np.float64)
        return KernelLaunch(
            kernel=kernel, grid=Dim3(grid, 1, 1),
            block=Dim3(threads, 1, 1),
            globals_init=({0: data} if n_inputs else {}),
            gmem_words=n_inputs + n_outputs + 8)

    def _gen_clean(self, name: str,
                   rng: random.Random) -> Tuple[KernelLaunch, bool]:
        """Data-parallel kernel with disjoint per-thread outputs."""
        threads = rng.choice((8, 16, 32, 64))
        grid = rng.choice((1, 2, 4))
        n = grid * threads
        use_smem = rng.random() < 0.5
        kb = KernelBuilder(name, smem_words=threads if use_smem else 0)
        t = kb.reg()
        kb.mov(t, Sreg("gtid"))
        a, b = kb.regs(2)
        kb.ldg(a, t, offset=0)
        kb.ldg(b, t, offset=n)
        acc = kb.reg()
        getattr(kb, rng.choice(_ALU_OPS))(acc, a, b)
        for _ in range(rng.randrange(0, 3)):
            getattr(kb, rng.choice(_ALU_OPS))(
                acc, acc, rng.choice((a, b)))
        if use_smem:
            # Barrier-separated staging through shared memory: every
            # word written before any cross-thread read.
            tid, staged = kb.regs(2)
            kb.mov(tid, Sreg("tid"))
            kb.sts(acc, tid)
            kb.bar()
            kb.lds(staged, tid)
            acc = staged
        guard = None
        if rng.random() < 0.3:
            # Concrete guard on the output store (exact masks).
            tid2 = kb.reg()
            p = kb.pred()
            kb.mov(tid2, Sreg("tid"))
            kb.setp("lt", p, tid2, rng.randrange(1, threads + 1))
            guard = (p, True)
        kb.stg(acc, t, offset=2 * n, guard=guard)
        kb.exit()
        return self._launch(kb.build(), grid, threads, 2 * n, n, rng), \
            False

    def _gen_racy(self, name: str,
                  rng: random.Random) -> Tuple[KernelLaunch, bool]:
        """Shared-memory race (single warp: deterministic data)."""
        threads = 32
        grid = rng.choice((1, 2, 4))
        n = grid * threads
        kind = rng.choice(("ww", "rw"))
        if kind == "ww":
            # Every thread stores to the same word: write-write race.
            smem = rng.choice((4, 8))
            kb = KernelBuilder(name, smem_words=smem)
            z, v, t, u = kb.regs(4)
            kb.mov(z, rng.randrange(smem))
            kb.mov(v, Sreg("tid"))
            kb.sts(v, z)
            kb.bar()
            kb.lds(u, z)
            kb.mov(t, Sreg("gtid"))
            kb.stg(u, t)
            kb.exit()
        else:
            # Store s[tid], read s[tid+1] with no barrier between:
            # read-write race (and the top word is never written).
            kb = KernelBuilder(name, smem_words=threads + 1)
            t, u, v, g = kb.regs(4)
            kb.mov(t, Sreg("tid"))
            kb.sts(t, t)
            kb.iadd(u, t, 1)
            kb.lds(v, u)
            kb.mov(g, Sreg("gtid"))
            kb.stg(v, g)
            kb.exit()
        return self._launch(kb.build(), grid, threads, 0, n, rng), False

    def _gen_uninit(self, name: str,
                    rng: random.Random) -> Tuple[KernelLaunch, bool]:
        """Reads of shared words no store ever writes."""
        threads = rng.choice((8, 16, 32))
        grid = rng.choice((1, 2))
        n = grid * threads
        kb = KernelBuilder(name, smem_words=threads)
        t, v, g = kb.regs(3)
        kb.mov(t, Sreg("tid"))
        if rng.random() < 0.5:
            # Partial initialization: only the first k words written.
            p = kb.pred()
            kb.setp("lt", p, t, rng.randrange(1, threads))
            kb.sts(t, t, guard=(p, True))
            kb.bar()
        kb.lds(v, t)
        kb.mov(g, Sreg("gtid"))
        kb.stg(v, g)
        kb.exit()
        return self._launch(kb.build(), grid, threads, 0, n, rng), False

    def _gen_oob(self, name: str,
                 rng: random.Random) -> Tuple[KernelLaunch, bool]:
        """Shared store past ``smem_words``: aborts with IndexError."""
        threads = 32
        smem = rng.choice((4, 8, 16))
        kb = KernelBuilder(name, smem_words=smem)
        t = kb.reg()
        kb.mov(t, Sreg("tid"))
        kb.sts(t, t)  # lanes >= smem are out of bounds
        kb.exit()
        return self._launch(kb.build(), 1, threads, 0, 0, rng), True


# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------


@dataclass
class FuzzReport:
    """Everything one fuzz run produced, JSON-ready via :meth:`to_dict`."""

    seed: int
    requested: int
    generated: int = 0
    valid: int = 0
    elapsed_s: float = 0.0
    records: List[Dict[str, Any]] = field(default_factory=list)
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    matrix: Dict[str, Any] = field(default_factory=dict)
    error_distribution: Dict[str, Any] = field(default_factory=dict)
    parallel_checked: int = 0

    @property
    def race_recall(self) -> Optional[float]:
        groups = self.matrix.get("groups", {})
        return groups.get("races", {}).get("recall")

    @property
    def gates(self) -> Dict[str, Any]:
        """The CI pass/fail verdicts this report is judged by."""
        recall = self.race_recall
        return {
            "bit_exact": not self.mismatches,
            "race_recall": recall,
            "race_recall_ok": recall is None or recall >= 1.0,
            "ok": (not self.mismatches
                   and (recall is None or recall >= 1.0)),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed, "requested": self.requested,
            "generated": self.generated, "valid": self.valid,
            "elapsed_s": self.elapsed_s,
            "parallel_checked": self.parallel_checked,
            "gates": self.gates, "matrix": self.matrix,
            "error_distribution": self.error_distribution,
            "mismatches": self.mismatches, "records": self.records,
        }


def _execute(backend_name: str, config: GPUConfig, launch: KernelLaunch,
             **kwargs):
    """Run one backend; returns ``(output, exception)``.

    Only the faults fuzzed kernels legitimately produce are caught --
    out-of-bounds aborts (IndexError) and barrier deadlocks.  Anything
    else is a harness bug and propagates.
    """
    from ..backends.base import get_backend
    from ..sim.core import SimulationDeadlock
    try:
        return get_backend(backend_name).simulate(config, launch,
                                                  **kwargs), None
    except (IndexError, SimulationDeadlock) as exc:
        return None, exc


def _diag_dicts(diagnostics) -> List[Dict[str, Any]]:
    return [d.to_dict() for d in (diagnostics or [])]


def run_fuzz(seed: int = 1337, count: int = 200,
             budget_s: Optional[float] = None,
             config: Optional[GPUConfig] = None,
             parallel_every: int = 5,
             error_sample: int = 10,
             progress=None) -> FuzzReport:
    """Generate, verify, differentially execute and grade a corpus.

    Args:
        seed: Corpus seed; the same seed always names the same corpus.
        count: Verifier-valid kernels to run (invalid generations are
            skipped and regenerated, counted in ``generated``).
        budget_s: Optional wall-clock budget; generation stops early
            when exceeded (the report then carries fewer cases).
        config: GPU to simulate (default: the paper's GT240).
        parallel_every: Every n-th non-faulting case also runs
            sanitized on ``parallel_cycle`` (2 shards) and must
            reproduce the serial diagnostics exactly (clean cases must
            also reproduce the memory image).
        error_sample: Clean cases sampled for the ``analytical``
            estimator's power-error distribution.
        progress: Optional callback ``(done, total)``.
    """
    if config is None:
        from ..sim.config import gt240
        config = gt240()
    fuzzer = KernelFuzzer(seed)
    report = FuzzReport(seed=int(seed), requested=int(count))
    start = time.perf_counter()
    errors: List[float] = []
    index = 0
    while report.valid < count:
        if budget_s is not None \
                and time.perf_counter() - start > budget_s:
            break
        case = fuzzer.case(index)
        index += 1
        report.generated += 1
        shape = shape_for_launch(case.launch, config)
        static = run_passes(case.launch.kernel, shape)
        if any(d.rule.startswith("V")
               and d.severity >= Severity.ERROR
               for d in static.diagnostics):
            continue  # verifier-invalid generation: regenerate
        report.valid += 1
        static_rules = sorted({d.rule for d in static.diagnostics})

        # Ground truth: the sanitized serial cycle engine.
        out_c, exc_c = _execute("cycle", config, case.launch,
                                sanitize=True)
        out_f, exc_f = _execute("functional_ref", config, case.launch)
        record: Dict[str, Any] = {
            "name": case.name, "index": case.index,
            "flavor": case.flavor,
            "grid": case.launch.grid.count,
            "block": case.launch.block.count,
            "smem_words": case.launch.kernel.smem_words,
            "static_rules": static_rules,
            "fault": exc_c is not None,
        }
        mismatch: Optional[str] = None
        if exc_c is not None:
            dynamic = getattr(exc_c, "sanitizer_diagnostics", [])
            if not case.expect_fault:
                mismatch = f"unexpected fault: {exc_c!r}"
            elif exc_f is None \
                    or type(exc_f).__name__ != type(exc_c).__name__:
                mismatch = (f"fault divergence: cycle={exc_c!r} "
                            f"functional_ref={exc_f!r}")
        else:
            dynamic = out_c.diagnostics or []
            if case.expect_fault:
                mismatch = "expected a fault but the run completed"
            elif exc_f is not None:
                mismatch = f"functional_ref faulted: {exc_f!r}"
            elif out_c.activity.to_dict() != out_f.activity.to_dict():
                mismatch = "activity counters differ"
            elif out_c.cycles != out_f.cycles:
                mismatch = (f"cycle counts differ: {out_c.cycles} "
                            f"vs {out_f.cycles}")
            elif not np.array_equal(out_c.gmem, out_f.gmem):
                mismatch = "final memory images differ"
        record["dynamic_rules"] = sorted({d.rule for d in dynamic})
        record["diagnostics"] = _diag_dicts(dynamic)

        # Sanitizer determinism across engines, on a corpus slice.
        if mismatch is None and exc_c is None and parallel_every \
                and report.valid % parallel_every == 0:
            out_p, exc_p = _execute("parallel_cycle", config,
                                    case.launch, sanitize=True,
                                    n_shards=2)
            report.parallel_checked += 1
            if exc_p is not None:
                mismatch = f"parallel_cycle faulted: {exc_p!r}"
            elif _diag_dicts(out_p.diagnostics) != _diag_dicts(dynamic):
                mismatch = "parallel_cycle sanitizer diagnostics differ"
            elif case.flavor == "clean" \
                    and not np.array_equal(out_c.gmem, out_p.gmem):
                mismatch = "parallel_cycle memory image differs"

        # Estimator error distribution on a clean sample.
        if mismatch is None and exc_c is None \
                and case.flavor == "clean" and len(errors) < error_sample:
            out_a, exc_a = _execute("analytical", config, case.launch)
            if exc_a is None:
                from ..power.chip import Chip
                chip = Chip(config)
                exact = chip.evaluate(out_c.activity).chip_total_w
                est = chip.evaluate(out_a.activity).chip_total_w
                if exact > 0:
                    errors.append(abs(est - exact) / exact)

        if mismatch is not None:
            record["mismatch"] = mismatch
            report.mismatches.append(
                {"name": case.name, "index": case.index,
                 "flavor": case.flavor, "mismatch": mismatch})
        report.records.append(record)
        if progress is not None:
            progress(report.valid, count)

    report.elapsed_s = time.perf_counter() - start
    report.matrix = grade_rules(report.records)
    if errors:
        arr = np.array(errors)
        report.error_distribution["analytical"] = {
            "n": int(arr.size),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
        }
    return report


def format_report(report: FuzzReport) -> str:
    """Human-readable summary of one fuzz run (the CLI's output)."""
    lines = [
        f"fuzz corpus: seed={report.seed} valid={report.valid}"
        f"/{report.requested} (generated {report.generated}) "
        f"in {report.elapsed_s:.1f}s",
        f"differential: {len(report.mismatches)} mismatch(es); "
        f"parallel determinism checked on {report.parallel_checked} "
        f"case(s)",
    ]
    for m in report.mismatches[:10]:
        lines.append(f"  MISMATCH {m['name']}: {m['mismatch']}")
    dist = report.error_distribution.get("analytical")
    if dist:
        lines.append(f"analytical power error: mean "
                     f"{100 * dist['mean']:.2f}%  max "
                     f"{100 * dist['max']:.2f}%  (n={dist['n']})")
    lines.append("rule grading (static vs sanitizer ground truth):")
    header = f"  {'rule':<15} {'tp':>4} {'fp':>4} {'fn':>4} " \
             f"{'precision':>10} {'recall':>8}"
    lines.append(header)

    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.3f}"

    for rule, row in report.matrix.get("rules", {}).items():
        lines.append(f"  {rule:<15} {row['tp']:>4} {row['fp']:>4} "
                     f"{row['fn']:>4} {fmt(row['precision']):>10} "
                     f"{fmt(row['recall']):>8}")
    for name, row in report.matrix.get("groups", {}).items():
        label = f"[{name}]"
        lines.append(f"  {label:<15} {row['tp']:>4} {row['fp']:>4} "
                     f"{row['fn']:>4} {fmt(row['precision']):>10} "
                     f"{fmt(row['recall']):>8}")
    gates = report.gates
    lines.append(f"gates: bit_exact={gates['bit_exact']} "
                 f"race_recall={fmt(gates['race_recall'])} "
                 f"-> {'PASS' if gates['ok'] else 'FAIL'}")
    return "\n".join(lines)
