"""The pass framework of the static analyzer.

An :class:`AnalysisManager` owns one kernel plus its launch shape and
lazily computes the facts the passes share -- CFG, dominators and
post-dominators (from :mod:`repro.isa.cfg`), register/predicate
liveness, and the symbolic per-thread evaluation
(:mod:`repro.analysis.symeval`).  Each fact is computed once and
cached, so a pipeline of passes pays for the expensive ones (the
symbolic fixpoint) exactly once.

A :class:`Pass` turns cached facts into :class:`Diagnostic` records.
:func:`run_passes` runs the default pipeline with the one ordering
constraint that matters: CFG-dependent passes are skipped when the
structural verifier found errors, because a malformed program (wild
branch targets, bad operands) has no trustworthy CFG to analyze.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..isa.cfg import (EXIT_PC_SENTINEL, basic_block_leaders, build_cfg,
                       dominators, immediate_post_dominators,
                       post_dominators, predecessors)
from ..isa.instructions import Instruction, Pred, Reg
from ..isa.kernel import Kernel
from ..isa.launch import KernelLaunch
from ..sim.config import GPUConfig
from .diagnostics import Diagnostic, Severity
from .symeval import SymbolicEvaluator, SymbolicFacts


@dataclass(frozen=True)
class LaunchShape:
    """The launch geometry the analyses evaluate the kernel under.

    The symbolic evaluation is concrete in ``tid``, so the analyses are
    specific to a block size -- exactly like the simulator itself.

    Attributes:
        n_threads: Threads per block.
        grid: Number of blocks.
        warp_size: Lanes per warp.
        smem_banks: Shared-memory banks (bank-conflict lint).
        coalesce_segment_bytes: Coalescer segment size (coalescing lint).
        word_bytes: Bytes per ISA word (addresses are word-granular).
    """

    n_threads: int
    grid: int = 1
    warp_size: int = 32
    smem_banks: int = 16
    coalesce_segment_bytes: int = 128
    word_bytes: int = 4


def shape_for_launch(launch: KernelLaunch,
                     config: GPUConfig) -> LaunchShape:
    """Launch geometry + the config knobs the memory models use."""
    return LaunchShape(
        n_threads=launch.block.count,
        grid=launch.grid.count,
        warp_size=config.warp_size,
        smem_banks=config.smem_banks,
        coalesce_segment_bytes=config.coalesce_segment_bytes,
    )


@dataclass(frozen=True)
class BlockLiveness:
    """Live register/predicate indices at basic-block boundaries."""

    live_in: Dict[int, Set[int]]
    live_out: Dict[int, Set[int]]
    pred_live_in: Dict[int, Set[int]]
    pred_live_out: Dict[int, Set[int]]


def instruction_uses(inst: Instruction) -> Tuple[List[int], List[int]]:
    """(register indices, predicate indices) read by one instruction."""
    regs = [s.index for s in inst.srcs if isinstance(s, Reg)]
    preds: List[int] = []
    if inst.guard is not None:
        preds.append(inst.guard[0].index)
    sel = getattr(inst, "sel_pred", None)
    if isinstance(sel, Pred):
        preds.append(sel.index)
    return regs, preds


def instruction_defs(inst: Instruction) -> Tuple[Optional[int],
                                                 Optional[int]]:
    """(register index, predicate index) written by one instruction."""
    if isinstance(inst.dst, Reg):
        return inst.dst.index, None
    if isinstance(inst.dst, Pred):
        return None, inst.dst.index
    return None, None


class AnalysisManager:
    """Cached per-kernel facts shared by every pass.

    Facts are properties that compute on first access and memoize; a
    pass just reads what it needs.  CFG-derived facts assume the
    structural verifier found no errors (callers enforce that via
    :func:`run_passes`).
    """

    def __init__(self, kernel: Kernel, shape: LaunchShape) -> None:
        self.kernel = kernel
        self.shape = shape
        self._cache: Dict[str, object] = {}

    def _memo(self, key: str, build: Callable[[], object]) -> object:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def instructions(self) -> Sequence[Instruction]:
        return self.kernel.instructions

    @property
    def leaders(self) -> List[int]:
        return self._memo(  # type: ignore[return-value]
            "leaders", lambda: basic_block_leaders(self.instructions))

    @property
    def cfg(self) -> Dict[int, List[int]]:
        return self._memo(  # type: ignore[return-value]
            "cfg", lambda: build_cfg(self.instructions))

    @property
    def preds(self) -> Dict[int, List[int]]:
        return self._memo(  # type: ignore[return-value]
            "preds", lambda: predecessors(self.cfg))

    @property
    def dom(self) -> Dict[int, Set[int]]:
        return self._memo(  # type: ignore[return-value]
            "dom", lambda: dominators(self.cfg))

    @property
    def pdom(self) -> Dict[int, Set[int]]:
        return self._memo(  # type: ignore[return-value]
            "pdom", lambda: post_dominators(self.cfg))

    @property
    def ipdom(self) -> Dict[int, int]:
        return self._memo(  # type: ignore[return-value]
            "ipdom", lambda: immediate_post_dominators(self.cfg))

    @property
    def block_ranges(self) -> Dict[int, int]:
        """Leader PC -> one-past-the-end PC of its block."""
        def build() -> Dict[int, int]:
            out: Dict[int, int] = {}
            for i, leader in enumerate(self.leaders):
                out[leader] = self.leaders[i + 1] \
                    if i + 1 < len(self.leaders) else len(self.instructions)
            return out
        return self._memo("block_ranges", build)  # type: ignore[return-value]

    @property
    def block_of(self) -> Dict[int, int]:
        """PC -> leader PC of the block containing it."""
        def build() -> Dict[int, int]:
            out: Dict[int, int] = {}
            for leader, end in self.block_ranges.items():
                for pc in range(leader, end):
                    out[pc] = leader
            return out
        return self._memo("block_of", build)  # type: ignore[return-value]

    @property
    def reachable_blocks(self) -> Set[int]:
        """Block leaders reachable from the entry block."""
        def build() -> Set[int]:
            if not self.leaders:
                return set()
            seen: Set[int] = set()
            stack = [self.leaders[0]]
            while stack:
                node = stack.pop()
                if node in seen or node == EXIT_PC_SENTINEL:
                    continue
                seen.add(node)
                stack.extend(self.cfg[node])
            return seen
        return self._memo("reachable", build)  # type: ignore[return-value]

    @property
    def liveness(self) -> BlockLiveness:
        """Backward register/predicate liveness over the block CFG."""
        return self._memo(  # type: ignore[return-value]
            "liveness", self._compute_liveness)

    def _compute_liveness(self) -> BlockLiveness:
        use: Dict[int, Set[int]] = {}
        deff: Dict[int, Set[int]] = {}
        puse: Dict[int, Set[int]] = {}
        pdef: Dict[int, Set[int]] = {}
        for leader, end in self.block_ranges.items():
            u: Set[int] = set()
            d: Set[int] = set()
            pu: Set[int] = set()
            pd: Set[int] = set()
            for pc in range(leader, end):
                inst = self.instructions[pc]
                regs, preds = instruction_uses(inst)
                u.update(r for r in regs if r not in d)
                pu.update(p for p in preds if p not in pd)
                rdef, pdef_idx = instruction_defs(inst)
                if rdef is not None:
                    d.add(rdef)
                if pdef_idx is not None:
                    pd.add(pdef_idx)
            use[leader], deff[leader] = u, d
            puse[leader], pdef[leader] = pu, pd
        live_in: Dict[int, Set[int]] = {n: set() for n in self.block_ranges}
        live_out: Dict[int, Set[int]] = {n: set() for n in self.block_ranges}
        plive_in: Dict[int, Set[int]] = {n: set() for n in self.block_ranges}
        plive_out: Dict[int, Set[int]] = {n: set() for n in self.block_ranges}
        changed = True
        while changed:
            changed = False
            for leader in reversed(self.leaders):
                out: Set[int] = set()
                pout: Set[int] = set()
                for succ in self.cfg[leader]:
                    if succ != EXIT_PC_SENTINEL:
                        out |= live_in[succ]
                        pout |= plive_in[succ]
                new_in = use[leader] | (out - deff[leader])
                pnew_in = puse[leader] | (pout - pdef[leader])
                if out != live_out[leader] or new_in != live_in[leader] \
                        or pout != plive_out[leader] \
                        or pnew_in != plive_in[leader]:
                    live_out[leader], live_in[leader] = out, new_in
                    plive_out[leader], plive_in[leader] = pout, pnew_in
                    changed = True
        return BlockLiveness(live_in, live_out, plive_in, plive_out)

    @property
    def symbolic(self) -> SymbolicFacts:
        """Symbolic per-thread evaluation (the expensive fact)."""
        def build() -> SymbolicFacts:
            return SymbolicEvaluator(
                self.kernel, self.shape.n_threads, self.shape.warp_size,
                self.shape.grid).run()
        return self._memo("symbolic", build)  # type: ignore[return-value]


class Pass:
    """One analysis pass: cached facts in, diagnostics out.

    Attributes:
        name: Stable pass name (shows up in pass listings and docs).
        needs_cfg: Pass reads CFG-derived facts and must be skipped
            when the structural verifier reported errors.
    """

    name: str = "?"
    needs_cfg: bool = True

    def run(self, am: AnalysisManager) -> List[Diagnostic]:
        raise NotImplementedError


@dataclass
class AnalysisResult:
    """Outcome of one analyzer pipeline over one kernel.

    Read-only once returned: :func:`repro.analysis.analyze_launch`
    hands every caller with the same kernel and shape the one memoised
    result.
    """

    kernel: str
    shape: LaunchShape
    diagnostics: List[Diagnostic] = field(default_factory=list)
    passes_run: List[str] = field(default_factory=list)
    passes_skipped: List[str] = field(default_factory=list)


def default_passes() -> List[Pass]:
    """The standard pipeline, in dependency order."""
    from .divergence import DivergencePass
    from .memlints import MemoryLintPass
    from .races import SmemRacePass
    from .uninit import UninitSharedPass
    from .verifier import CfgVerifierPass, StructuralVerifierPass
    return [StructuralVerifierPass(), CfgVerifierPass(),
            DivergencePass(), SmemRacePass(), UninitSharedPass(),
            MemoryLintPass()]


def run_passes(kernel: Kernel, shape: LaunchShape,
               passes: Optional[Sequence[Pass]] = None) -> AnalysisResult:
    """Run a pass pipeline over one kernel.

    Structural errors (malformed instructions, wild branch targets)
    poison every CFG-derived fact, so any error reported by a
    non-CFG pass short-circuits the CFG-dependent remainder.
    """
    am = AnalysisManager(kernel, shape)
    result = AnalysisResult(kernel=kernel.name, shape=shape)
    structural_errors = False
    for p in passes if passes is not None else default_passes():
        if p.needs_cfg and structural_errors:
            result.passes_skipped.append(p.name)
            continue
        found = p.run(am)
        result.diagnostics.extend(found)
        result.passes_run.append(p.name)
        if not p.needs_cfg and any(
                d.severity >= Severity.ERROR for d in found):
            structural_errors = True
    return result
