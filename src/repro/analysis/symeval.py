"""Symbolic per-thread evaluation of a kernel over its block CFG.

The race detector and the memory lints need to know, for every shared-
or global-memory access, *which word each thread touches*.  This module
computes that by abstract interpretation: every register value is
tracked as

    per-thread concrete component  +  linear combination of uniform
                                      unknowns

where the concrete component is a numpy vector over all threads of one
block (``tid`` is ``arange(block_threads)``) and the uniform unknowns
are symbols that are *equal across threads* but whose value is not
known statically -- the block index ``ctaid``, loop-carried values
(phi symbols), and results of opaque operations on uniform inputs.

This split is what makes the analyses work on real kernels:

* **bank conflicts** and **address distinctness** are invariant under a
  uniform shift, so they are decidable whenever the per-thread
  component is known -- even inside loops where the base address is a
  loop-carried unknown (the matmul tile loop's ``kk``);
* **divergence** falls out for free: a value is uniform iff its
  concrete component is constant across threads (the unknowns are
  uniform by construction).

Thread-variant values that cannot be tracked (data loaded from
thread-dependent addresses, nonlinear combinations) degrade to a
``TOP`` marker and the dependent analyses degrade gracefully (an
"unanalyzable" note instead of a wrong verdict).

Where every operand is fully concrete, opcodes are evaluated through
the functional model's own dispatch tables (:mod:`repro.sim.functional`)
so the abstraction is bit-exact exactly where it claims totality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.cfg import EXIT_PC_SENTINEL, basic_block_leaders, build_cfg
from ..isa.instructions import Imm, Instruction, Pred, Reg, Sreg
from ..sim.functional import _CMP, VALUE_OPS, evaluate_op

#: A uniform-unknown symbol.  Tuples keep them hashable and stable:
#: ``("ctaid",)`` the block index, ``("phi", pc, kind, index)`` a join
#: point, ``("load", pc)`` / ``("op", pc)`` opaque uniform results.
Term = Tuple[object, ...]

CTAID: Term = ("ctaid",)


class SymVal:
    """One register's abstract value (see module docstring).

    ``vec is None`` means thread-variant unknown (TOP).  Otherwise the
    value is ``vec + sum(coeff * unknown for unknown, coeff in syms)``
    with every unknown uniform across threads.
    """

    __slots__ = ("vec", "syms")

    def __init__(self, vec: Optional[np.ndarray],
                 syms: Optional[Dict[Term, float]] = None) -> None:
        self.vec = vec
        self.syms: Dict[Term, float] = syms or {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(value: float, n: int) -> "SymVal":
        return SymVal(np.full(n, float(value)))

    @staticmethod
    def from_vec(vec: np.ndarray) -> "SymVal":
        return SymVal(np.asarray(vec, dtype=np.float64))

    @staticmethod
    def unknown(term: Term, n: int) -> "SymVal":
        return SymVal(np.zeros(n), {term: 1.0})

    @staticmethod
    def top() -> "SymVal":
        return SymVal(None)

    # -- predicates ----------------------------------------------------------

    @property
    def is_top(self) -> bool:
        return self.vec is None

    @property
    def is_uniform(self) -> bool:
        """Equal across threads (the unknowns are uniform by nature)."""
        if self.vec is None:
            return False
        return bool(len(self.vec) == 0 or np.all(self.vec == self.vec[0]))

    @property
    def is_const(self) -> bool:
        return self.is_uniform and not self.syms

    def const_value(self) -> float:
        assert self.is_const and self.vec is not None
        return float(self.vec[0]) if len(self.vec) else 0.0

    def equals(self, other: "SymVal") -> bool:
        if self.is_top or other.is_top:
            return self.is_top and other.is_top
        assert self.vec is not None and other.vec is not None
        return (self.syms == other.syms
                and np.array_equal(self.vec, other.vec))

    def __repr__(self) -> str:
        if self.is_top:
            return "SymVal(TOP)"
        terms = " + ".join(f"{c:g}*{t}" for t, c in sorted(
            self.syms.items(), key=lambda kv: repr(kv[0])))
        head = "uniform" if self.is_uniform else "per-thread"
        return f"SymVal({head}{' + ' + terms if terms else ''})"


def _merge_syms(a: Dict[Term, float], b: Dict[Term, float],
                sign: float) -> Dict[Term, float]:
    out = dict(a)
    for term, coeff in b.items():
        new = out.get(term, 0.0) + sign * coeff
        if new == 0.0:
            out.pop(term, None)
        else:
            out[term] = new
    return out


def _add(a: SymVal, b: SymVal, sign: float = 1.0) -> SymVal:
    if a.is_top or b.is_top:
        return SymVal.top()
    assert a.vec is not None and b.vec is not None
    return SymVal(a.vec + sign * b.vec, _merge_syms(a.syms, b.syms, sign))


def _scale(a: SymVal, factor: float) -> SymVal:
    if a.is_top:
        return SymVal.top()
    assert a.vec is not None
    return SymVal(a.vec * factor,
                  {t: c * factor for t, c in a.syms.items()
                   if c * factor != 0.0})


class PredVal:
    """Abstract predicate value: concrete bool vector or unknown.

    ``vec`` is the per-thread truth vector when concrete; otherwise
    None, with ``assume_uniform`` recording whether the unknown value
    is provably equal across threads.
    """

    __slots__ = ("vec", "assume_uniform")

    def __init__(self, vec: Optional[np.ndarray],
                 assume_uniform: bool = False) -> None:
        self.vec = vec
        self.assume_uniform = assume_uniform

    @staticmethod
    def concrete(vec: np.ndarray) -> "PredVal":
        return PredVal(np.asarray(vec, dtype=bool))

    @staticmethod
    def unknown(uniform: bool) -> "PredVal":
        return PredVal(None, uniform)

    @property
    def is_uniform(self) -> bool:
        if self.vec is None:
            return self.assume_uniform
        return bool(len(self.vec) == 0 or np.all(self.vec == self.vec[0]))

    def equals(self, other: "PredVal") -> bool:
        if self.vec is None or other.vec is None:
            return (self.vec is None and other.vec is None
                    and self.assume_uniform == other.assume_uniform)
        return np.array_equal(self.vec, other.vec)


# ---------------------------------------------------------------------------
# Facts produced
# ---------------------------------------------------------------------------


@dataclass
class MemAccess:
    """One static memory instruction with its resolved address picture.

    Attributes:
        pc: Program counter of the instruction.
        op: Opcode (LDS/STS/LDG/STG/LDC/LDT).
        space: Address space ("shared"/"global"/"const"/"texture").
        is_store: Whether the access writes.
        mask: Per-thread participation (block execution mask refined by
            a concrete guard); an over-approximation when ``exact`` is
            False.
        exact: True when ``mask`` is exact (every controlling predicate
            on the way here was statically concrete).
        addr_vec: Per-thread word-address component (instruction offset
            included), or None when the address is thread-variant
            unknown.
        addr_syms: Uniform-unknown terms completing the address.
    """

    pc: int
    op: str
    space: str
    is_store: bool
    mask: np.ndarray
    exact: bool
    addr_vec: Optional[np.ndarray]
    addr_syms: Dict[Term, float] = field(default_factory=dict)

    @property
    def analyzable(self) -> bool:
        """Per-thread address component statically known."""
        return self.addr_vec is not None

    @property
    def base_resolves(self) -> bool:
        """Address fully known per block (only ``ctaid`` unknowns)."""
        return self.analyzable and all(t == CTAID for t in self.addr_syms)

    def addresses(self, ctaid: int = 0) -> np.ndarray:
        """Masked per-thread word addresses for one block index.

        Only valid when :attr:`base_resolves`; loop-carried unknowns
        have no defined value to plug in.
        """
        assert self.addr_vec is not None
        base = self.addr_syms.get(CTAID, 0.0) * ctaid
        return (self.addr_vec[self.mask] + base).astype(np.int64)


@dataclass
class BranchFact:
    """Divergence verdict for one conditional branch.

    ``uniform`` is True when provably uniform over the executing
    threads, False when provably divergent, None when unknown (treated
    as potentially divergent).
    """

    pc: int
    uniform: Optional[bool]


@dataclass
class BarrierFact:
    """Execution picture of one BAR instruction."""

    pc: int
    mask: np.ndarray
    exact: bool


@dataclass
class SymbolicFacts:
    """Everything the symbolic evaluator learned about one kernel."""

    n_threads: int
    warp_size: int
    grid: int
    mem: List[MemAccess]
    branches: Dict[int, BranchFact]
    barriers: List[BarrierFact]
    block_masks: Dict[int, np.ndarray]
    block_exact: Dict[int, bool]
    reachable_blocks: List[int]

    def smem_accesses(self) -> List[MemAccess]:
        return [m for m in self.mem if m.space == "shared"]

    def global_accesses(self) -> List[MemAccess]:
        return [m for m in self.mem if m.space == "global"]


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

#: Linear opcodes that also work on symbolic (uniform-unknown) values.
_LINEAR = {"IADD": 1.0, "FADD": 1.0, "ISUB": -1.0, "FSUB": -1.0}


class _State:
    """Register/predicate state at one program point."""

    __slots__ = ("regs", "preds", "mask", "exact")

    def __init__(self, regs: List[SymVal], preds: List[PredVal],
                 mask: np.ndarray, exact: bool) -> None:
        self.regs = regs
        self.preds = preds
        self.mask = mask
        self.exact = exact

    def copy(self) -> "_State":
        return _State(list(self.regs), list(self.preds),
                      self.mask.copy(), self.exact)


def _join_reg(a: SymVal, b: SymVal, phi: Term) -> SymVal:
    if a.equals(b):
        return a
    if a.is_top or b.is_top:
        return SymVal.top()
    if a.is_uniform and b.is_uniform:
        assert a.vec is not None
        return SymVal.unknown(phi, len(a.vec))
    return SymVal.top()


def _join_pred(a: PredVal, b: PredVal) -> PredVal:
    if a.equals(b):
        return a
    return PredVal.unknown(a.is_uniform and b.is_uniform)


def _guarded_reg(old: SymVal, new: SymVal, gvec: Optional[np.ndarray],
                 phi: Term) -> SymVal:
    """Value after a write of ``new`` under guard truth vector ``gvec``.

    ``gvec`` is None when the guard predicate is statically unknown
    (join conservatively); all-true means an unguarded write.  The
    block execution mask deliberately does *not* gate writes: a state
    describes the threads flowing along this path, and threads on other
    paths are merged at CFG join points.
    """
    if gvec is None:
        return _join_reg(old, new, phi)
    if bool(gvec.all()):
        return new
    if not bool(gvec.any()):
        return old
    if not old.is_top and not new.is_top and old.syms == new.syms:
        assert old.vec is not None and new.vec is not None
        return SymVal(np.where(gvec, new.vec, old.vec), dict(old.syms))
    return _join_reg(old, new, phi)


def _guarded_pred(old: PredVal, new: PredVal,
                  gvec: Optional[np.ndarray]) -> PredVal:
    if gvec is None:
        return _join_pred(old, new)
    if bool(gvec.all()):
        return new
    if not bool(gvec.any()):
        return old
    if old.vec is not None and new.vec is not None:
        return PredVal.concrete(np.where(gvec, new.vec, old.vec))
    return _join_pred(old, new)


class SymbolicEvaluator:
    """Run the abstract interpretation for one kernel + launch shape.

    Args:
        kernel: The assembled :class:`~repro.isa.kernel.Kernel`.
        n_threads: Threads per block (``launch.block.count``).
        warp_size: Lanes per warp (from the GPU configuration).
        grid: Number of blocks (``launch.grid.count``).
    """

    def __init__(self, kernel, n_threads: int, warp_size: int,
                 grid: int) -> None:
        self.kernel = kernel
        self.instructions = kernel.instructions
        self.n = int(n_threads)
        self.warp_size = int(warp_size)
        self.grid = int(grid)
        self.leaders = basic_block_leaders(self.instructions)
        self.cfg = build_cfg(self.instructions)
        self._block_end: Dict[int, int] = {}
        for i, leader in enumerate(self.leaders):
            end = self.leaders[i + 1] if i + 1 < len(self.leaders) \
                else len(self.instructions)
            self._block_end[leader] = end
        self.specials = self._make_specials()

    def _make_specials(self) -> Dict[str, SymVal]:
        n = self.n
        tid = np.arange(n, dtype=np.float64)
        return {
            "tid": SymVal.from_vec(tid),
            "ctaid": SymVal.unknown(CTAID, n),
            "ntid": SymVal.const(n, n),
            "nctaid": SymVal.const(self.grid, n),
            "laneid": SymVal.from_vec(tid % self.warp_size),
            "warpid": SymVal.from_vec(tid // self.warp_size),
            # gtid = ctaid * ntid + tid (matches repro.sim.core).
            "gtid": SymVal(tid.copy(), {CTAID: float(n)}),
        }

    # -- operand reading -----------------------------------------------------

    def _read(self, state: _State, operand) -> SymVal:
        if isinstance(operand, Reg):
            if 0 <= operand.index < len(state.regs):
                return state.regs[operand.index]
            return SymVal.top()
        if isinstance(operand, Imm):
            return SymVal.const(operand.value, self.n)
        if isinstance(operand, Sreg):
            return self.specials[operand.name]
        return SymVal.top()

    def _read_pred(self, state: _State, pred: Pred) -> PredVal:
        if 0 <= pred.index < len(state.preds):
            return state.preds[pred.index]
        return PredVal.unknown(False)

    # -- transfer functions --------------------------------------------------

    def _eval_alu(self, pc: int, inst: Instruction,
                  state: _State) -> SymVal:
        op = inst.op
        srcs = [self._read(state, s) for s in inst.srcs]
        concrete = srcs and all(not s.is_top and not s.syms for s in srcs)
        # Fully concrete operands: defer to the functional model's own
        # dispatch so the abstraction is bit-exact where it is total.
        if concrete and op in VALUE_OPS:
            return SymVal(evaluate_op(op, [s.vec for s in srcs]))
        if any(s.is_top for s in srcs):
            return SymVal.top()
        if op == "MOV" and srcs:
            return srcs[0]
        if op in _LINEAR and len(srcs) == 2:
            return _add(srcs[0], srcs[1], _LINEAR[op])
        if op in ("IMUL", "FMUL") and len(srcs) == 2:
            a, b = srcs
            if a.is_const:
                return _scale(b, a.const_value())
            if b.is_const:
                return _scale(a, b.const_value())
        if op in ("IMAD", "FFMA") and len(srcs) == 3:
            a, b, c = srcs
            prod: Optional[SymVal] = None
            if a.is_const:
                prod = _scale(b, a.const_value())
            elif b.is_const:
                prod = _scale(a, b.const_value())
            if prod is not None:
                return _add(prod, c)
        if op == "SHL" and len(srcs) == 2 and srcs[1].is_const:
            shift = int(srcs[1].const_value())
            if 0 <= shift < 32:
                return _scale(srcs[0], float(1 << shift))
        if op == "IMOD" and len(srcs) == 2 and srcs[1].is_const \
                and srcs[1].const_value() > 0:
            # (vec + k*u) % m == vec % m when every coefficient k is a
            # multiple of m: the uniform terms drop out of the residue
            # (assuming integer-valued unknowns, true for addresses).
            a, m = srcs[0], int(srcs[1].const_value())
            if a.vec is not None and all(
                    c == int(c) and int(c) % m == 0
                    for c in a.syms.values()):
                ints = a.vec.astype(np.int64)
                if np.all(a.vec == ints):
                    return SymVal((ints % m).astype(np.float64))
        if op == "SELP":
            sel_pred = getattr(inst, "sel_pred", None)
            sel = self._read_pred(state, sel_pred) \
                if isinstance(sel_pred, Pred) else PredVal.unknown(False)
            if len(srcs) == 2 and sel.vec is not None \
                    and srcs[0].syms == srcs[1].syms:
                assert srcs[0].vec is not None and srcs[1].vec is not None
                return SymVal(np.where(sel.vec, srcs[0].vec, srcs[1].vec),
                              dict(srcs[0].syms))
            if all(s.is_uniform for s in srcs) and sel.is_uniform:
                return SymVal.unknown(("op", pc), self.n)
            return SymVal.top()
        # Opaque result: uniform when every input is.
        if srcs and all(s.is_uniform for s in srcs):
            return SymVal.unknown(("op", pc), self.n)
        return SymVal.top()

    def _eval_setp(self, inst: Instruction, state: _State) -> PredVal:
        cmp = inst.op.split(".", 1)[1]
        a = self._read(state, inst.srcs[0])
        b = self._read(state, inst.srcs[1])
        diff = _add(a, b, -1.0)
        if not diff.is_top and not diff.syms:
            # a <cmp> b  ==  (a - b) <cmp> 0, and the uniform unknowns
            # cancelled, so the comparison is decidable per thread.
            assert diff.vec is not None
            return PredVal.concrete(_CMP[cmp](diff.vec,
                                              np.zeros_like(diff.vec)))
        return PredVal.unknown(a.is_uniform and b.is_uniform)

    def _guard_vec(self, inst: Instruction,
                   state: _State) -> Optional[np.ndarray]:
        """Guard truth vector: all-true if unguarded, None if unknown."""
        if inst.guard is None:
            return np.ones(self.n, dtype=bool)
        pred, sense = inst.guard
        pv = self._read_pred(state, pred)
        if pv.vec is not None:
            return pv.vec if sense else ~pv.vec
        return None

    def _transfer(self, pc: int, inst: Instruction, state: _State,
                  record: Optional[SymbolicFacts]) -> None:
        """Apply one instruction to ``state`` (in place)."""
        gvec = self._guard_vec(inst, state)
        # Participation picture for recorded sites: the block execution
        # mask refined by the guard, exact only when both are.
        mask = state.mask if gvec is None else state.mask & gvec
        exact = state.exact and gvec is not None
        op = inst.op
        if op.startswith("SETP.") or op.startswith("FSETP."):
            if isinstance(inst.dst, Pred) \
                    and 0 <= inst.dst.index < len(state.preds):
                new = self._eval_setp(inst, state)
                state.preds[inst.dst.index] = _guarded_pred(
                    state.preds[inst.dst.index], new, gvec)
            return
        if op in ("LDG", "LDS", "LDC", "LDT", "STG", "STS"):
            addr = self._read(state, inst.srcs[0]) if inst.srcs \
                else SymVal.top()
            if record is not None:
                if addr.is_top:
                    vec, syms = None, {}
                else:
                    assert addr.vec is not None
                    vec = addr.vec + inst.offset
                    syms = dict(addr.syms)
                record.mem.append(MemAccess(
                    pc=pc, op=op, space=inst.mem_space or "global",
                    is_store=inst.is_store, mask=mask.copy(), exact=exact,
                    addr_vec=vec, addr_syms=syms))
            if not inst.is_store and isinstance(inst.dst, Reg) \
                    and 0 <= inst.dst.index < len(state.regs):
                # A load's value is statically unknown; it is uniform
                # only for a uniform-address constant load (mutable
                # memory can differ even at one address over time).
                if op == "LDC" and not addr.is_top and addr.is_uniform:
                    value = SymVal.unknown(("load", pc), self.n)
                else:
                    value = SymVal.top()
                state.regs[inst.dst.index] = _guarded_reg(
                    state.regs[inst.dst.index], value, gvec,
                    ("phi", pc, "load", inst.dst.index))
            return
        if op == "BAR":
            if record is not None:
                record.barriers.append(
                    BarrierFact(pc=pc, mask=mask.copy(), exact=exact))
            return
        if op in ("BRA", "JMP", "EXIT", "NOP"):
            return
        # ALU family.
        if isinstance(inst.dst, Reg) \
                and 0 <= inst.dst.index < len(state.regs):
            new = self._eval_alu(pc, inst, state)
            state.regs[inst.dst.index] = _guarded_reg(
                state.regs[inst.dst.index], new, gvec,
                ("phi", pc, "def", inst.dst.index))

    # -- CFG iteration -------------------------------------------------------

    def _initial_state(self) -> _State:
        # Register files start zeroed in the simulator (WarpContext), so
        # the concrete entry state is all-zeros -- reads of never-written
        # registers still match execution (the verifier lints them).
        regs = [SymVal.const(0.0, self.n)] * self.kernel.n_regs
        preds = [PredVal.concrete(np.zeros(self.n, dtype=bool))] \
            * self.kernel.n_preds
        return _State(regs, preds, np.ones(self.n, dtype=bool), True)

    def _run_block(self, leader: int, state: _State,
                   record: Optional[SymbolicFacts]) -> _State:
        for pc in range(leader, self._block_end[leader]):
            self._transfer(pc, self.instructions[pc], state, record)
        return state

    def _out_edges(self, leader: int,
                   state: _State) -> List[Tuple[int, _State]]:
        """Successor leaders with the propagated state along each edge."""
        end = self._block_end[leader]
        last = self.instructions[end - 1]
        succs = [s for s in self.cfg[leader] if s != EXIT_PC_SENTINEL]
        if not succs:
            return []
        if last.op == "BRA" and last.guard is not None and len(succs) >= 2:
            pred, sense = last.guard
            pv = self._read_pred(state, pred)
            out: List[Tuple[int, _State]] = []
            if pv.vec is not None:
                taken = pv.vec if sense else ~pv.vec
                for succ in succs:
                    edge = state.copy()
                    edge.mask = state.mask & (taken if succ == last.target
                                              else ~taken)
                    out.append((succ, edge))
            else:
                for succ in succs:
                    edge = state.copy()
                    edge.exact = False
                    out.append((succ, edge))
            return out
        return [(succ, state.copy()) for succ in succs]

    def _join_states(self, leader: int, current: Optional[_State],
                     incoming: _State) -> Tuple[_State, bool]:
        """Merge ``incoming`` into ``current``; returns (state, changed)."""
        if current is None:
            return incoming.copy(), True
        changed = False
        for i in range(len(current.regs)):
            new = _join_reg(current.regs[i], incoming.regs[i],
                            ("phi", leader, "r", i))
            if not new.equals(current.regs[i]):
                current.regs[i] = new
                changed = True
        for i in range(len(current.preds)):
            newp = _join_pred(current.preds[i], incoming.preds[i])
            if not newp.equals(current.preds[i]):
                current.preds[i] = newp
                changed = True
        merged_mask = current.mask | incoming.mask
        if not np.array_equal(merged_mask, current.mask):
            current.mask = merged_mask
            changed = True
        if current.exact and not incoming.exact:
            current.exact = False
            changed = True
        return current, changed

    def run(self) -> SymbolicFacts:
        """Iterate to fixpoint, then record facts in one final sweep."""
        if not self.leaders:
            return SymbolicFacts(self.n, self.warp_size, self.grid,
                                 [], {}, [], {}, {}, [])
        entry = self.leaders[0]
        entry_states: Dict[int, _State] = {entry: self._initial_state()}
        work = [entry]
        rounds = 0
        limit = 50 * max(1, len(self.leaders))
        while work and rounds < limit:
            rounds += 1
            leader = work.pop(0)
            state = self._run_block(leader, entry_states[leader].copy(),
                                    record=None)
            for succ, edge in self._out_edges(leader, state):
                merged, changed = self._join_states(
                    succ, entry_states.get(succ), edge)
                entry_states[succ] = merged
                if changed and succ not in work:
                    work.append(succ)

        facts = SymbolicFacts(
            n_threads=self.n, warp_size=self.warp_size, grid=self.grid,
            mem=[], branches={}, barriers=[],
            block_masks={}, block_exact={},
            reachable_blocks=sorted(entry_states),
        )
        for leader in sorted(entry_states):
            state = entry_states[leader].copy()
            facts.block_masks[leader] = state.mask.copy()
            facts.block_exact[leader] = state.exact
            self._run_block(leader, state, record=facts)
            end = self._block_end[leader]
            last = self.instructions[end - 1]
            if last.op == "BRA" and last.guard is not None:
                pred, _sense = last.guard
                pv = self._read_pred(state, pred)
                if pv.vec is not None:
                    vals = pv.vec[state.mask]
                    uniform: Optional[bool] = bool(
                        len(vals) == 0 or np.all(vals == vals[0]))
                elif pv.assume_uniform:
                    uniform = True
                else:
                    uniform = None
                facts.branches[end - 1] = BranchFact(pc=end - 1,
                                                     uniform=uniform)
        facts.mem.sort(key=lambda m: m.pc)
        facts.barriers.sort(key=lambda b: b.pc)
        return facts
