"""One SIMT core: warp control unit + register file + execution units +
load/store unit, driven as a discrete-event engine.

The core steps at shader-clock granularity but is only *stepped* at
cycles where it can plausibly make progress; when every warp is blocked
it reports the earliest wake-up time so the GPU-level event loop can skip
idle cycles.  All timestamps are absolute shader cycles (floats).

Issue slots visit only the *ready* warps (see :class:`Core`), and a step
that issues nothing attributes its stall from counts the core keeps
anyway; docs/ARCHITECTURE.md ("The issue loop") states the invariants
that make both exactly equal to a scan over every warp.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

try:  # the popcount itself, without numpy's dispatch wrapper
    from numpy._core.multiarray import count_nonzero
except ImportError:
    try:  # numpy < 2
        from numpy.core.multiarray import count_nonzero
    except ImportError:  # neither private module exports it
        count_nonzero = np.count_nonzero

from ..isa.instructions import Instruction
from ..isa.kernel import Kernel
from ..isa.launch import KernelLaunch
from .config import GPUConfig
from .exec_units import ExecutionUnits
from .functional import VECTORIZED, AluExecutor, FunctionalBinding
from .ldst import LoadStoreUnit
from .memsys import MemorySystem
from .regfile import RegisterFile
from .warp import Warp
from .wcu import INSTRUCTION_BYTES, WarpControlUnit


#: The stall reasons a live warp can have (``empty`` means no warp).
_STALL_REASONS = ("barrier", "dependency", "unit_busy", "ldst_busy")


class SimulationDeadlock(RuntimeError):
    """Raised when live warps exist but none can ever issue again."""


class DecodedInst(NamedTuple):
    """What the issue slot needs to know about one static instruction.

    The scan fields come first so the hot loop can unpack the tuple.
    """

    unit: str                   #: int / fp / sfu / mem / ctrl
    search: bool                #: scoreboard searches it (not ctrl)
    hazard: Tuple[int, ...]     #: registers read, then the one written
    inst: Instruction
    n_reads: int                #: general registers read
    dst: Optional[int]          #: general register written
    guard: Optional[Tuple[int, bool]]   #: (predicate index, sense)
    icache_addr: int            #: I-cache byte address
    execute: Optional[AluExecutor]      #: value executor (ALU units)


#: Per-pc decode of one kernel for one launch.
DecodeTable = Tuple[DecodedInst, ...]


def decode_kernel(kernel: Kernel, warp_size: int,
                  functional: FunctionalBinding = VECTORIZED) -> DecodeTable:
    """Decode every instruction of ``kernel`` once, for one launch.

    ALU instructions get their value executor from ``functional``'s
    compile step.  The table lives on the cores (never on the kernel or
    its instructions, which are pickled and digested).
    """
    table = []
    for pc, inst in enumerate(kernel.instructions):
        unit = inst.unit
        reads = inst.reads_regs
        dst = inst.writes_reg
        guard = None
        if inst.guard is not None:
            pred, sense = inst.guard
            guard = (pred.index, sense)
        execute = None
        if unit in ("int", "fp", "sfu"):
            execute = functional.compile_alu(inst, warp_size)
        table.append(DecodedInst(
            unit=unit, search=unit != "ctrl",
            hazard=reads if dst is None else reads + (dst,),
            inst=inst, n_reads=len(reads), dst=dst, guard=guard,
            icache_addr=pc * INSTRUCTION_BYTES, execute=execute))
    return tuple(table)


def max_resident_blocks(config: GPUConfig, kernel: Kernel,
                        threads_per_block: int) -> int:
    """How many blocks of ``kernel`` one core can hold concurrently.

    The binding resource is the tightest of the block-slot, thread,
    warp, shared-memory and register-file limits.  Shared by
    :meth:`Core.prepare`, the analytical backend's occupancy model and
    the parallel shard coordinator's dispatch planner, so all three
    agree exactly on per-core capacity.
    """
    warps_per_block = -(-threads_per_block // config.warp_size)
    limits = [
        config.max_blocks_per_core,
        config.max_threads_per_core // threads_per_block,
        config.max_warps_per_core // warps_per_block,
    ]
    if kernel.smem_words > 0:
        limits.append((config.smem_size // 4) // kernel.smem_words)
    regs_per_block = threads_per_block * kernel.n_regs
    if regs_per_block > 0:
        limits.append(config.regfile_regs_per_core // regs_per_block)
    return max(0, min(limits))


@dataclass
class BlockResidence:
    """One thread block resident on the core."""

    block_id: int
    warps: List[Warp] = field(default_factory=list)
    live_warps: int = 0
    barrier_arrived: int = 0
    smem: np.ndarray = field(default_factory=lambda: np.zeros(0))


class Core:
    """A single SIMT core executing warps of one kernel launch.

    A warp is *ready* when it is not done, not waiting at a barrier and
    its ``blocked_until`` has passed.  The core keeps a list of warp
    indices (``_ready``, ascending) that holds every ready warp, plus
    the warps that issued under a scoreboard and so sleep one cycle;
    the other live warps blocked past the current cycle wait in a heap
    (``_sleepers``) and rejoin the list at the first step at or after
    their ``blocked_until``, a barrier waiter when its barrier releases.
    An issue slot visits the listed warps in the scheduler's rotation
    order and counts a listed warp that is still blocked as a
    ``dependency``, as it would a sleeper -- so it tests exactly the
    warps the full scan would have tested, in the same order, and issue
    choices, stall reasons and the ``scoreboard_searches`` count do not
    depend on the bookkeeping.  A warp the scoreboard holds back keeps
    that answer (:attr:`Warp.sb_held`) until one of its writes lands.
    """

    def __init__(self, core_id: int, config: GPUConfig,
                 memsys: MemorySystem,
                 functional: FunctionalBinding = VECTORIZED) -> None:
        self.core_id = core_id
        self.config = config
        self.memsys = memsys
        #: Value-level entry points (vectorised, or the scalar oracle).
        self.functional = functional
        self.wcu = WarpControlUnit(config)
        self.regfile = RegisterFile(config)
        self.exec_units = ExecutionUnits(config)
        self.ldst: Optional[LoadStoreUnit] = None
        #: Optional runtime sanitizer (:mod:`repro.sim.sanitizer`).
        #: Pure observer: hooks only read state, so results are
        #: bit-identical with or without one attached.
        self.sanitizer = None
        # Launch context (set by prepare()).
        self.kernel: Optional[Kernel] = None
        self.launch: Optional[KernelLaunch] = None
        self.max_concurrent_blocks = 0
        #: The launch's decode table (see :func:`decode_kernel`).
        self._table: DecodeTable = ()
        # Runtime state.
        self.blocks: Dict[int, BlockResidence] = {}
        self.warps: List[Warp] = []
        self._events: List[tuple] = []  # (time, seq, warp, reg, is_mem)
        self._event_seq = 0
        self._rr = 0
        self._last_issued = 0       # for the greedy-then-oldest policy
        self._active_group = 0      # for the two-level policy
        # Issue-loop bookkeeping (see the class docstring).
        self._ready: List[int] = []
        self._sleepers: List[Tuple[float, int]] = []
        self._live = 0              # warps not done
        self._at_barrier = 0        # live warps waiting at a barrier
        #: How many ready warps the last issue slot found blocked by a
        #: dependency, a busy unit and a busy LDST unit, and the
        #: earliest time a busy one frees; read when a step issues
        #: nothing.
        self._stall_counts = (0, 0, 0)
        self._stalled_wake = math.inf
        self._group_size = max(1, config.scheduler_group_size)
        # Hot-path constants of the issue slot.
        self._wst_entries = config.max_warps_per_core
        self._has_sb = config.has_scoreboard
        self._scoreboard = self.wcu.scoreboard
        self._groups = self.exec_units.groups
        self._extra_slots = range(config.issue_width - 1)
        # Statistics.
        self.busy_cycles = 0
        self.blocks_executed = 0
        #: Stall attribution: cycles the core was stepped but could not
        #: issue, by dominant reason.
        self.stall_cycles: Dict[str, int] = {
            "dependency": 0, "unit_busy": 0, "ldst_busy": 0,
            "barrier": 0, "empty": 0,
        }
        self.stack_pushes = 0
        self.stack_pops = 0
        self.branches = 0
        self.divergent_branches = 0
        self.barriers = 0

    @property
    def issued(self) -> int:
        """Warp instructions issued (the front end counts them)."""
        return self.wcu.issues

    @property
    def stack_reads(self) -> int:
        """Divergence-stack top reads: one per issued instruction."""
        return self.wcu.issues

    # -- launch setup ---------------------------------------------------------

    def prepare(self, kernel: Kernel, launch: KernelLaunch,
                gmem: np.ndarray, cmem: Optional[np.ndarray],
                table: Optional[DecodeTable] = None) -> None:
        """Bind a kernel launch to the core and size the block slots.

        ``table`` is the launch's decode table, shared by every core of
        an engine (:meth:`~repro.sim.shard.ShardEngine.prepare`); a core
        prepared on its own decodes the kernel itself.
        """
        self.kernel = kernel
        self.launch = launch
        self.ldst = LoadStoreUnit(self.config, self.memsys, gmem, cmem)
        self.max_concurrent_blocks = max_resident_blocks(
            self.config, kernel, launch.block.count)
        if table is None:
            table = decode_kernel(kernel, self.config.warp_size,
                                  self.functional)
        self._table = table

    @property
    def free_slots(self) -> int:
        return self.max_concurrent_blocks - len(self.blocks)

    @property
    def idle(self) -> bool:
        return not self.warps and not self._events

    @property
    def ever_used(self) -> bool:
        return self.blocks_executed > 0 or bool(self.blocks)

    def assign_block(self, block_id: int) -> None:
        """Place one thread block (all its warps) onto the core."""
        if self.free_slots <= 0:
            raise RuntimeError("no free block slot")
        assert self.kernel is not None and self.launch is not None
        cfg = self.config
        kernel = self.kernel
        launch = self.launch
        threads = launch.block.count
        warp_size = cfg.warp_size
        n_warps = -(-threads // warp_size)
        residence = BlockResidence(
            block_id=block_id,
            smem=np.zeros(max(1, kernel.smem_words), dtype=np.float64),
        )
        lane = np.arange(warp_size, dtype=np.float64)
        for w in range(n_warps):
            base = w * warp_size
            tid = lane + base
            valid = tid < threads
            specials = {
                "tid": tid,
                "ctaid": np.full(warp_size, float(block_id)),
                "ntid": np.full(warp_size, float(threads)),
                "nctaid": np.full(warp_size, float(launch.grid.count)),
                "laneid": lane.copy(),
                "warpid": np.full(warp_size, float(w)),
                "gtid": tid + block_id * threads,
            }
            warp = Warp(
                warp_id=len(self.warps) + w,
                block_slot=block_id,
                block_id=block_id,
                kernel=kernel,
                specials=specials,
                warp_size=warp_size,
                initial_mask=valid,
            )
            residence.warps.append(warp)
        residence.live_warps = n_warps
        self.blocks[block_id] = residence
        first = len(self.warps)
        self.warps.extend(residence.warps)
        # Fresh warps (blocked_until 0) are ready at any cycle.
        self._ready.extend(range(first, first + n_warps))
        self._live += n_warps

    # -- event plumbing -------------------------------------------------------

    def _schedule(self, time: float, warp: Warp, reg: Optional[int],
                  is_mem: bool) -> None:
        self._event_seq += 1
        heapq.heappush(self._events,
                       (time, self._event_seq, warp, reg, is_mem))

    def _refresh_ready(self, now: float) -> None:
        """Rebuild the issue-loop bookkeeping from the warps' own flags.

        Needed whenever warp indices shift (a block retires); also lets
        a test that edits warp state by hand resynchronise the core.
        """
        ready: List[int] = []
        sleepers: List[Tuple[float, int]] = []
        live = at_barrier = 0
        for index, warp in enumerate(self.warps):
            warp.sb_held = None
            if warp.done:
                continue
            live += 1
            if warp.at_barrier:
                at_barrier += 1
            elif warp.blocked_until <= now:
                ready.append(index)
            else:
                sleepers.append((warp.blocked_until, index))
        heapq.heapify(sleepers)
        self._ready = ready
        self._sleepers = sleepers
        self._live = live
        self._at_barrier = at_barrier

    def _admit(self, index: int, warp: Warp, now: float) -> None:
        """A warp left a barrier: ready now, else a sleeper until its
        ``blocked_until`` passes."""
        if warp.blocked_until > now:
            heapq.heappush(self._sleepers, (warp.blocked_until, index))
            return
        ready = self._ready
        k = bisect_left(ready, index)
        # The warp whose arrival released the barrier is still listed.
        if k == len(ready) or ready[k] != index:
            ready.insert(k, index)

    # -- main step ------------------------------------------------------------

    def step(self, now: float) -> Optional[float]:
        """Simulate the core at cycle ``now``.

        Returns the next time the core wants to be stepped, or None when
        it is completely idle (no warps, no events).
        """
        events = self._events
        if events and events[0][0] <= now:
            scoreboard = self._scoreboard
            heappop = heapq.heappop
            while events and events[0][0] <= now:
                _, _, warp, reg, is_mem = heappop(events)
                # Writeback clears the scoreboard entry.
                if reg is not None:
                    scoreboard.writes += 1
                    warp.release(reg)
                if is_mem:
                    warp.outstanding_memory -= 1
                    if warp.outstanding_memory == 0 and warp.done:
                        block = self.blocks.get(warp.block_slot)
                        if block is not None and block.live_warps <= 0:
                            self._retire_block(block, now)
        if not self.warps:
            if events:
                return events[0][0]
            return None

        sleepers = self._sleepers
        if sleepers and sleepers[0][0] <= now:
            ready = self._ready
            while sleepers and sleepers[0][0] <= now:
                index = heapq.heappop(sleepers)[1]
                ready.insert(bisect_left(ready, index), index)

        # The fetch and issue schedulers evaluate candidates this cycle.
        self.wcu.scheduler_ops += 1
        if not self._try_issue_one(now):
            return self._stall(now)
        for _ in self._extra_slots:
            if not self._try_issue_one(now):
                break
        self.busy_cycles += 1
        return now + 1.0

    def _stall(self, now: float) -> Optional[float]:
        """The first issue slot found nothing: pick the wake-up time and
        charge the skipped cycles to the dominant stall reason.

        Every live warp has one reason, as the full scan would record
        it: ``barrier`` for barrier waiters, ``dependency`` for sleepers
        (in the heap or still listed), and for the other listed warps
        what the slot found.  The reason with the most warps wins; a tie
        goes to the tied reason met first in the slot's rotation order.
        """
        events = self._events
        if not self._live:
            # Warps all done but block cleanup pending happens at issue
            # time; clean now.
            self._reap_finished(now)
            if events:
                return events[0][0]
            return None if not self.warps else now + 1.0
        sleepers = self._sleepers
        wake = self._stalled_wake
        if events:
            wake = min(wake, events[0][0])
        if sleepers:
            wake = min(wake, sleepers[0][0])
        if wake == math.inf:
            if self._at_barrier == self._live:
                raise SimulationDeadlock(
                    f"core {self.core_id}: all live warps stuck at a barrier"
                )
            raise SimulationDeadlock(
                f"core {self.core_id}: no runnable warp and no pending event"
            )
        wake = max(now + 1.0, wake)
        dependency, unit_busy, ldst_busy = self._stall_counts
        counts = (self._at_barrier, len(sleepers) + dependency, unit_busy,
                  ldst_busy)
        top = max(counts)
        if top == 0:
            reason = "empty"
        elif counts.count(top) == 1:
            reason = _STALL_REASONS[counts.index(top)]
        else:
            reason = self._first_in_rotation(
                [r for r, n in zip(_STALL_REASONS, counts) if n == top], now)
        self.stall_cycles[reason] += max(1, round(wake - now))
        return wake

    def _first_in_rotation(self, tied: Sequence[str], now: float) -> str:
        """Of the ``tied`` stall reasons, the one whose first warp comes
        earliest in this slot's visit order over all warps."""
        # Nothing issued, so the slot's visit order is still current.
        warps = self.warps
        for index in self._scan_order():
            warp = warps[index]
            if warp.done:
                continue
            if warp.at_barrier:
                reason = "barrier"
            elif now < warp.blocked_until:
                reason = "dependency"
            else:
                reason = self._passed_over(warp)
            if reason in tied:
                return reason
        raise AssertionError("tied stall reason without a warp")

    def _passed_over(self, warp: Warp) -> str:
        """Why the last issue slot passed over the ready ``warp``.

        Nothing issued since, so the slot's answer is re-derived from
        the same state (without counting a scoreboard search).
        """
        unit, search, hazard = self._table[warp.stack._tokens[-1].pc][:3]
        if self._has_sb:
            pending = warp.pending_writes
            if len(pending) >= self._scoreboard.dst_per_warp or (
                    search and not pending.keys().isdisjoint(hazard)):
                return "dependency"
        return "ldst_busy" if unit == "mem" else "unit_busy"

    def _scan_order(self) -> List[int]:
        """Visit order over every warp for this issue slot."""
        return self._rotate(list(range(len(self.warps))))

    def _rotate(self, indices: List[int]) -> List[int]:
        """Ascending warp ``indices`` in this slot's visit order.

        * ``rr`` -- rotating priority from the round-robin pointer (the
          paper's baseline scheduler of Fig. 2);
        * ``gto`` -- greedy-then-oldest: keep issuing the warp that
          issued last until it stalls, then fall back to warp age;
        * ``two_level`` -- Narasiman-style fetch groups: exhaust the
          active group before visiting other groups (which therefore
          arrive at long-latency operations staggered in time).

        Each order is the ascending list with one block moved to the
        front, so rotating a subset gives the full order restricted to
        that subset.  An order equal to the ascending one is ``indices``
        itself, not a copy.
        """
        policy = self.config.warp_scheduler
        if policy == "rr":
            k = bisect_left(indices, self._rr)
            if k == 0 or k == len(indices):
                return indices
            return indices[k:] + indices[:k]
        if policy == "gto":
            last = min(self._last_issued, len(self.warps) - 1)
            k = bisect_left(indices, last)
            if k < len(indices) and indices[k] == last:
                return [last] + indices[:k] + indices[k + 1:]
            return indices
        group = self._group_size
        lo = self._active_group * group
        i = bisect_left(indices, lo)
        j = bisect_left(indices, lo + group)
        return indices[i:j] + indices[:i] + indices[j:]

    def _try_issue_one(self, now: float) -> bool:
        """One issue slot: issue the first ready warp, in rotation
        order, whose instruction can go; count why the others cannot."""
        wake = math.inf
        dependency = unit_busy = ldst_busy = 0
        ready = self._ready
        if ready:
            has_sb = self._has_sb
            scoreboard = self._scoreboard
            sb_capacity = scoreboard.dst_per_warp
            searches = 0
            groups = self._groups
            ldst = self.ldst
            assert ldst is not None  # prepare() ran before any warp
            ldst_free_at = ldst.busy_until
            warps = self.warps
            table = self._table
            for index in self._rotate(ready):
                warp = warps[index]
                if has_sb:
                    held = warp.sb_held
                    if held is not None:
                        # Held by the scoreboard at an earlier test and
                        # nothing written back since: the same answer,
                        # and the same search count.
                        searches += held
                        dependency += 1
                        continue
                    blocked = warp.blocked_until
                    if blocked > now:
                        # Issued last cycle: a sleeper still listed.
                        if blocked < wake:
                            wake = blocked
                        dependency += 1
                        continue
                entry = table[warp.stack._tokens[-1].pc]
                unit, search, hazard = entry[0], entry[1], entry[2]
                if has_sb:
                    pending = warp.pending_writes
                    if len(pending) >= sb_capacity:
                        warp.sb_held = 0
                        dependency += 1
                        continue  # wake via writeback event
                    if search:
                        # One tagged search: RAW/WAW against the
                        # pending writes.
                        searches += 1
                        if pending and not pending.keys().isdisjoint(hazard):
                            warp.sb_held = 1
                            dependency += 1
                            continue
                if unit == "mem":
                    if ldst_free_at > now:
                        if ldst_free_at < wake:
                            wake = ldst_free_at
                        ldst_busy += 1
                        continue
                elif search:
                    free_at = groups[unit].free_at
                    if free_at > now:
                        if free_at < wake:
                            wake = free_at
                        unit_busy += 1
                        continue
                scoreboard.searches += searches
                self._issue(warp, index, entry, now)
                self._last_issued = index
                self._active_group = index // self._group_size
                self._rr = (index + 1) % max(1, len(self.warps))
                return True
            scoreboard.searches += searches
        self._stall_counts = (dependency, unit_busy, ldst_busy)
        self._stalled_wake = wake
        return False

    # -- instruction issue ----------------------------------------------------

    def _issue(self, warp: Warp, index: int, entry: DecodedInst,
               now: float) -> None:
        """Issue ``warp``'s next instruction, decoded as ``entry``."""
        unit, _, _, inst, n_reads, dst, guard, icache_addr, execute = entry
        token = warp.stack._tokens[-1]
        pc = token.pc
        active = token.mask
        # Front end.  Fetch: stack top read + WST read (master PC) +
        # I-cache read + decode + buffer fill.  Issue: WST read (ready
        # bits) + tagged buffer search + WST update; the slot frees
        # again.  The buffer's ``fills`` counts all but the I-cache
        # read (WarpControlUnit derives the others from it).
        wcu = self.wcu
        wcu.icache.lookup(icache_addr)
        ibuffer = wcu.ibuffer
        slot = warp.warp_id % self._wst_entries
        if ibuffer.occupancy[slot] >= ibuffer.slots_per_warp:
            raise RuntimeError(f"instruction buffer overflow for warp {slot}")
        ibuffer.fills += 1

        if unit == "ctrl":
            self._issue_ctrl(warp, inst, pc, active, now)
            # Leave the ready set unless still eligible this cycle (a
            # BAR that releases its own barrier keeps the warp ready).
            if warp.done or warp.at_barrier or warp.blocked_until > now:
                self._ready.remove(index)
                if not (warp.done or warp.at_barrier):
                    heapq.heappush(self._sleepers,
                                   (warp.blocked_until, index))
            if warp.done or warp.stack.empty:
                self._finish_warp(warp, now)
            return

        ctx = warp.ctx
        if guard is None:
            mask = active
        else:
            pred, sense = guard
            pvals = ctx.preds[pred]
            mask = active & (pvals if sense else ~pvals)
        lanes = count_nonzero(mask)
        # Operand collection: each source register is one warp-wide
        # read over the banks its lanes touch, parked in a collector
        # entry, which then dispatches.
        regfile = self.regfile
        banks = regfile.banks_for_lanes[lanes]
        if n_reads:
            regfile.operand_reads += n_reads
            regfile.bank_accesses += n_reads * banks
        regfile.collector_reads += 1
        is_mem = unit == "mem"
        if is_mem:
            ldst = self.ldst
            assert ldst is not None
            smem = self.blocks[warp.block_slot].smem
            if self.sanitizer is not None:
                # Before execute: an access about to fault out of bounds
                # is still recorded, so the IndexError carries the
                # finding.
                self.sanitizer.observe_access(warp, inst, pc, ctx, mask,
                                              smem)
            completion = ldst.execute(inst, ctx, mask, smem, now)
        else:
            group = self._groups[unit]
            if group.free_at > now:
                raise RuntimeError(f"{unit} unit busy until {group.free_at}")
            group.free_at = now + group.occupancy
            group.warp_instructions += 1
            group.lane_ops += lanes
            completion = now + group.occupancy + group.latency
            execute(ctx, mask, lanes)
        if dst is not None:
            # Writeback of one warp-wide result, reserved in the
            # scoreboard until the completion event releases it.
            regfile.operand_writes += 1
            regfile.bank_accesses += banks
            self._scoreboard.writes += 1
            warp.reserve(dst)
            if is_mem:
                warp.outstanding_memory += 1
            self._schedule(completion, warp, dst, is_mem)
        # Sequential PC update; reaching the reconvergence point pops.
        token.pc = pc + 1
        if token.reconv_pc == pc + 1:
            warp.stack.pop_reconverged()
        if self._has_sb:
            # One cycle's sleep: the warp stays listed (see Core).
            warp.blocked_until = now + 1.0
        else:
            warp.blocked_until = completion
            if completion > now:
                self._ready.remove(index)
                heapq.heappush(self._sleepers, (completion, index))

    def _issue_ctrl(self, warp: Warp, inst: Instruction, pc: int,
                    active: np.ndarray, now: float) -> None:
        op = inst.op
        if op == "NOP":
            warp.stack.advance(pc + 1)
            warp.blocked_until = now + 1.0
        elif op == "JMP":
            warp.stack.advance(inst.target)
            warp.blocked_until = now + self.config.branch_latency_cycles
        elif op == "BRA":
            self.branches += 1
            taken = self.functional.branch_taken_mask(inst, warp.ctx, active)
            diverged = warp.stack.diverge(taken, inst.target, pc + 1,
                                          inst.reconv_pc)
            if diverged:
                self.divergent_branches += 1
            warp.blocked_until = now + self.config.branch_latency_cycles
        elif op == "BAR":
            self.barriers += 1
            warp.stack.advance(pc + 1)
            warp.at_barrier = True
            self._at_barrier += 1
            self._barrier_arrive(warp, now)
        elif op == "EXIT":
            mask = warp.ctx.guard_mask(inst, active)
            warp.stack.exit_lanes(mask)
            if warp.stack.empty:
                warp.done = True
            elif warp.stack.current()[0] == pc:
                warp.stack.advance(pc + 1)
            warp.blocked_until = now + 1.0
        else:
            raise ValueError(f"unhandled control op {op}")

    # -- block/barrier management ---------------------------------------------

    def _barrier_arrive(self, warp: Warp, now: float) -> None:
        block = self.blocks[warp.block_slot]
        block.barrier_arrived += 1
        self._maybe_release_barrier(block, now)

    def _maybe_release_barrier(self, block: BlockResidence,
                               now: float) -> None:
        if block.live_warps > 0 and block.barrier_arrived >= block.live_warps:
            block.barrier_arrived = 0
            # A block's warps sit contiguously, in order, in self.warps.
            base = self.warps.index(block.warps[0])
            for offset, w in enumerate(block.warps):
                if w.at_barrier and not w.done:
                    w.at_barrier = False
                    self._at_barrier -= 1
                    self._admit(base + offset, w, now)
            if self.sanitizer is not None:
                self.sanitizer.on_barrier_release(block.block_id)

    def _finish_warp(self, warp: Warp, now: float) -> None:
        warp.done = True
        self._live -= 1
        block = self.blocks.get(warp.block_slot)
        if block is None:
            return
        block.live_warps -= 1
        if block.live_warps <= 0:
            self._retire_block(block, now)
        else:
            # A warp exiting may satisfy a barrier the rest waits on.
            self._maybe_release_barrier(block, now)

    def _retire_block(self, block: BlockResidence, now: float) -> None:
        # The block slot frees only when no warp has outstanding traffic.
        if any(w.outstanding_memory > 0 for w in block.warps):
            return
        for warp in block.warps:
            self.absorb_warp_stats(warp)
        del self.blocks[block.block_id]
        self.warps = [w for w in self.warps if w.block_slot != block.block_id]
        self._rr = 0
        self.blocks_executed += 1
        self._refresh_ready(now)
        if self.sanitizer is not None:
            self.sanitizer.on_block_retire(block.block_id)

    def _reap_finished(self, now: float) -> None:
        for block in list(self.blocks.values()):
            if block.live_warps <= 0:
                self._retire_block(block, now)

    # -- statistics -----------------------------------------------------------

    def absorb_warp_stats(self, warp: Warp) -> None:
        """Accumulate a retired warp's divergence-stack activity."""
        self.stack_pushes += warp.stack.pushes
        self.stack_pops += warp.stack.pops
