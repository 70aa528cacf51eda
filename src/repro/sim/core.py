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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..isa.instructions import Instruction
from ..isa.kernel import Kernel
from ..isa.launch import KernelLaunch
from .config import GPUConfig
from .exec_units import ExecutionUnits
from .functional import VECTORIZED, FunctionalBinding
from .ldst import LoadStoreUnit
from .memsys import MemorySystem
from .regfile import RegisterFile
from .warp import Warp
from .wcu import WarpControlUnit


#: The stall reasons a live warp can have (``empty`` means no warp).
_STALL_REASONS = ("barrier", "dependency", "unit_busy", "ldst_busy")


class SimulationDeadlock(RuntimeError):
    """Raised when live warps exist but none can ever issue again."""


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
    its ``blocked_until`` has passed.  The core keeps the ready warps'
    indices (``_ready``, ascending) and a heap of the live warps blocked
    past the current cycle (``_sleepers``); a sleeper rejoins the ready
    set at the first step at or after its ``blocked_until``, a barrier
    waiter when its barrier releases.  An issue slot visits the ready
    warps in the scheduler's rotation order -- exactly the warps the
    full scan would have tested, in the same order -- so issue choices
    and the ``scoreboard_searches`` count do not depend on the
    bookkeeping.
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
        #: Per-pc ``(inst, unit, reads_regs, writes_reg)``.
        self._decoded: List[Tuple[Instruction, str, Tuple[int, ...],
                                  Optional[int]]] = []
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
        #: Stall reason of each ready warp the last issue slot visited
        #: without issuing (in visit order), and the earliest time one
        #: of them can go (unit/LDST free); read when a step issues
        #: nothing.
        self._stalled: List[str] = []
        self._stalled_wake = math.inf
        self._group_size = max(1, config.scheduler_group_size)
        # Statistics.
        self.busy_cycles = 0
        self.issued = 0
        self.blocks_executed = 0
        #: Stall attribution: cycles the core was stepped but could not
        #: issue, by dominant reason.
        self.stall_cycles: Dict[str, int] = {
            "dependency": 0, "unit_busy": 0, "ldst_busy": 0,
            "barrier": 0, "empty": 0,
        }
        self.stack_pushes = 0
        self.stack_pops = 0
        self.stack_reads = 0
        self.branches = 0
        self.divergent_branches = 0
        self.barriers = 0

    # -- launch setup ---------------------------------------------------------

    def prepare(self, kernel: Kernel, launch: KernelLaunch,
                gmem: np.ndarray, cmem: Optional[np.ndarray]) -> None:
        """Bind a kernel launch to the core and size the block slots."""
        self.kernel = kernel
        self.launch = launch
        self.ldst = LoadStoreUnit(self.config, self.memsys, gmem, cmem)
        self.max_concurrent_blocks = max_resident_blocks(
            self.config, kernel, launch.block.count)
        self._decoded = [(inst, inst.unit, inst.reads_regs, inst.writes_reg)
                         for inst in kernel.instructions]

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

    # -- event plumbing ------------------------------------------------------------

    def _schedule(self, time: float, warp: Warp, reg: Optional[int],
                  is_mem: bool) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (time, self._event_seq, warp, reg, is_mem))

    def _drain_events(self, now: float) -> None:
        events = self._events
        release = self.wcu.scoreboard.release
        while events and events[0][0] <= now:
            _, _, warp, reg, is_mem = heapq.heappop(events)
            release(warp, reg)
            if is_mem:
                warp.outstanding_memory -= 1
                if warp.outstanding_memory == 0 and warp.done:
                    block = self.blocks.get(warp.block_slot)
                    if block is not None and block.live_warps <= 0:
                        self._retire_block(block, now)

    def _refresh_ready(self, now: float) -> None:
        """Rebuild the issue-loop bookkeeping from the warps' own flags.

        Needed whenever warp indices shift (a block retires); also lets
        a test that edits warp state by hand resynchronise the core.
        """
        ready: List[int] = []
        sleepers: List[Tuple[float, int]] = []
        live = at_barrier = 0
        for index, warp in enumerate(self.warps):
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

    # -- main step -----------------------------------------------------------------

    def step(self, now: float) -> Optional[float]:
        """Simulate the core at cycle ``now``.

        Returns the next time the core wants to be stepped, or None when
        it is completely idle (no warps, no events).
        """
        events = self._events
        if events and events[0][0] <= now:
            self._drain_events(now)
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

        self.wcu.account_schedule_cycle()
        if not self._try_issue_one(now):
            return self._stall(now)
        for _ in range(self.config.issue_width - 1):
            if not self._try_issue_one(now):
                break
        self.busy_cycles += 1
        return now + 1.0

    def _stall(self, now: float) -> Optional[float]:
        """The first issue slot found nothing: pick the wake-up time and
        charge the skipped cycles to the dominant stall reason.

        Every live warp has one reason, as the full scan would record
        it: ``barrier`` for barrier waiters, ``dependency`` for sleepers,
        and for ready warps what the slot found.  The reason with the
        most warps wins; a tie goes to the tied reason met first in the
        slot's rotation order.
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
        stalled = self._stalled
        counts = (self._at_barrier,
                  len(sleepers) + stalled.count("dependency"),
                  stalled.count("unit_busy"), stalled.count("ldst_busy"))
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
        ready_reason = dict(zip(self._rotate(self._ready), self._stalled))
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
                reason = ready_reason[index]
            if reason in tied:
                return reason
        raise AssertionError("tied stall reason without a warp")

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
        that subset.
        """
        policy = self.config.warp_scheduler
        if policy == "rr":
            k = bisect_left(indices, self._rr)
            return indices[k:] + indices[:k]
        if policy == "gto":
            last = min(self._last_issued, len(self.warps) - 1)
            k = bisect_left(indices, last)
            if k < len(indices) and indices[k] == last:
                return [last] + indices[:k] + indices[k + 1:]
            return list(indices)
        group = self._group_size
        lo = self._active_group * group
        i = bisect_left(indices, lo)
        j = bisect_left(indices, lo + group)
        return indices[i:j] + indices[:i] + indices[j:]

    def _note_issued(self, index: int) -> None:
        self._last_issued = index
        self._active_group = index // self._group_size
        self._rr = (index + 1) % max(1, len(self.warps))

    def _try_issue_one(self, now: float) -> bool:
        """One issue slot: issue the first ready warp, in rotation
        order, whose instruction can go; record why the others cannot."""
        stalled: List[str] = []
        self._stalled = stalled
        wake = math.inf
        ready = self._ready
        if ready:
            has_sb = self.config.has_scoreboard
            sb_blocks = self.wcu.scoreboard.blocks
            groups = self.exec_units.groups
            ldst = self.ldst
            assert ldst is not None  # prepare() ran before any warp
            warps = self.warps
            decoded = self._decoded
            for index in self._rotate(ready):
                warp = warps[index]
                inst, unit, reads, dst = decoded[warp.stack._tokens[-1].pc]
                if has_sb and sb_blocks(warp, reads, dst, unit != "ctrl"):
                    stalled.append("dependency")
                    continue  # wake via writeback event
                if unit == "mem":
                    busy_until = ldst.busy_until
                    if busy_until > now:
                        wake = min(wake, busy_until)
                        stalled.append("ldst_busy")
                        continue
                elif unit != "ctrl":
                    free_at = groups[unit].free_at
                    if free_at > now:
                        wake = min(wake, free_at)
                        stalled.append("unit_busy")
                        continue
                self._issue(warp, index, inst, unit, dst, now)
                self._note_issued(index)
                return True
        self._stalled_wake = wake
        return False

    # -- instruction issue -----------------------------------------------------

    def _issue(self, warp: Warp, index: int, inst: Instruction, unit: str,
               dst: Optional[int], now: float) -> None:
        token = warp.stack._tokens[-1]
        pc = token.pc
        active = token.mask
        self.stack_reads += 1
        self.wcu.account_issue(
            warp.warp_id % self.config.max_warps_per_core, pc)
        self.issued += 1
        warp.instructions_issued += 1

        if unit == "ctrl":
            self._issue_ctrl(warp, inst, pc, active, now)
        elif unit == "mem":
            self._issue_mem(warp, inst, pc, active, now, dst)
        else:
            self._issue_alu(warp, inst, pc, active, now, unit, dst)
        # Leave the ready set unless still eligible this cycle (a BAR
        # that releases its own barrier keeps the warp ready).
        if warp.done or warp.at_barrier or warp.blocked_until > now:
            self._ready.remove(index)
            if not (warp.done or warp.at_barrier):
                heapq.heappush(self._sleepers, (warp.blocked_until, index))
        if warp.done or warp.stack.empty:
            self._finish_warp(warp, now)

    def _issue_alu(self, warp: Warp, inst: Instruction, pc: int,
                   active: np.ndarray, now: float, unit: str,
                   dst: Optional[int]) -> None:
        ctx = warp.ctx
        mask = ctx.guard_mask(inst, active)
        lanes = np.count_nonzero(mask)
        regfile = self.regfile
        regfile.read_operands(len(inst.reads_regs), lanes)
        regfile.dispatch()
        completion = self.exec_units.issue(unit, now, lanes)
        self.functional.execute_alu(inst, ctx, mask)
        if dst is not None:
            regfile.write_result(lanes)
            self.wcu.scoreboard.reserve(warp, dst)
            self._schedule(completion, warp, dst, is_mem=False)
        warp.stack.advance(pc + 1)
        warp.blocked_until = (now + 1.0 if self.config.has_scoreboard
                              else completion)

    def _issue_mem(self, warp: Warp, inst: Instruction, pc: int,
                   active: np.ndarray, now: float,
                   dst: Optional[int]) -> None:
        ldst = self.ldst
        assert ldst is not None
        ctx = warp.ctx
        mask = ctx.guard_mask(inst, active)
        lanes = np.count_nonzero(mask)
        regfile = self.regfile
        regfile.read_operands(len(inst.reads_regs), lanes)
        regfile.dispatch()
        smem = self.blocks[warp.block_slot].smem
        if self.sanitizer is not None:
            # Before execute: an access about to fault out of bounds is
            # still recorded, so the IndexError carries the finding.
            self.sanitizer.observe_access(warp, inst, pc, ctx, mask,
                                          smem)
        completion = ldst.execute(inst, ctx, mask, smem, now)
        if dst is not None:
            regfile.write_result(lanes)
            self.wcu.scoreboard.reserve(warp, dst)
            warp.outstanding_memory += 1
            self._schedule(completion, warp, dst, is_mem=True)
        warp.stack.advance(pc + 1)
        warp.blocked_until = (now + 1.0 if self.config.has_scoreboard
                              else completion)

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

    # -- block/barrier management --------------------------------------------------

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

    # -- statistics ---------------------------------------------------------------

    def absorb_warp_stats(self, warp: Warp) -> None:
        """Accumulate a retired warp's divergence-stack activity."""
        self.stack_pushes += warp.stack.pushes
        self.stack_pops += warp.stack.pops
