"""Epoch-steppable shard engine: the resumable heart of ``GPU.run``.

A :class:`ShardEngine` owns a subset of a GPU's cores plus one
:class:`~repro.sim.memsys.MemorySystem` and advances them with exactly
the event loop :meth:`repro.sim.gpu.GPU.run` used to inline: pop the
earliest ``(wake_time, core_id)`` event, step that core, feed freed
block slots from the pending queue, push the next wake.  The difference
is that the loop is *resumable*: :meth:`step_epoch` advances only up to
an epoch horizon and can be called again after new blocks were granted
(:meth:`extend_queue` + :meth:`barrier_fill`) at the epoch barrier.

Two callers drive it:

* :meth:`GPU.run` builds ONE engine over all cores with an unbounded
  horizon -- that degenerate case is bit-identical to the historical
  inline loop (same heap tuples, same tie-breaks, same float
  arithmetic), which the determinism tests pin down;
* the ``parallel_cycle`` backend builds one engine per worker over a
  cluster-aligned core subset and steps them epoch by epoch, exchanging
  block grants and background-load estimates at the barriers.

Both cut telemetry windows through the one tracer slot,
:attr:`ShardEngine.tracer`, and build reports with the one collector,
:meth:`ShardEngine.collect`, from the same per-core and uncore
additions in the same order (:func:`accumulate_core`,
:func:`accumulate_memsys`); the analytical estimator reads its sampled
load/store units with the LDST half, :func:`accumulate_ldst`.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .activity import (ActivityReport, set_cycle_envelope,
                       set_launch_envelope)
from .config import GPUConfig
from .core import Core, decode_kernel
from .ldst import LoadStoreUnit
from .memsys import MemorySystem


def dispatch_order(config: GPUConfig) -> List[int]:
    """The Fig. 4 global dispatch order, breadth-first over clusters.

    Core 0 of every cluster, then core 1 of every cluster, ...
    """
    return [
        cluster * config.cores_per_cluster + slot
        for slot in range(config.cores_per_cluster)
        for cluster in range(config.n_clusters)
    ]


def plan_initial_placement(order: Sequence[int], capacity: int,
                           n_blocks: int) -> Tuple[List[Tuple[int, int]], int]:
    """Plan the Fig. 4 breadth-first initial placement without cores.

    Every core holds the same ``capacity`` blocks of a launch
    (:func:`repro.sim.core.max_resident_blocks`), so the placement
    needs no core state: repeated passes over ``order`` assign one
    block per core per pass until a pass places nothing or blocks run
    out.  ``GPU.run`` and the ``parallel_cycle`` coordinator both place
    through it.

    Returns ``(assignments, n_placed)`` where ``assignments`` is the
    ``(core_id, block_id)`` list in global placement order.
    """
    assigned: Dict[int, int] = {cid: 0 for cid in order}
    assignments: List[Tuple[int, int]] = []
    next_block = 0
    filling = True
    while filling and next_block < n_blocks:
        filling = False
        for cid in order:
            if next_block >= n_blocks:
                break
            if assigned[cid] < capacity:
                assignments.append((cid, next_block))
                assigned[cid] += 1
                next_block += 1
                filling = True
    return assignments, next_block


def accumulate_core(act: ActivityReport, core: Core) -> None:
    """Add one core's counters into ``act``."""
    act.core_busy_cycles += core.busy_cycles
    for reason, stalled in core.stall_cycles.items():
        name = f"stall_{reason}"
        setattr(act, name, getattr(act, name) + stalled)
    wcu = core.wcu
    act.fetches += wcu.fetches
    act.decodes += wcu.decodes
    act.icache_reads += wcu.icache.reads
    act.icache_misses += wcu.icache.misses
    act.wst_reads += wcu.wst_reads
    act.wst_writes += wcu.wst_writes
    act.ibuffer_searches += wcu.ibuffer.searches
    act.ibuffer_writes += wcu.ibuffer.writes
    act.scoreboard_searches += wcu.scoreboard.searches
    act.scoreboard_writes += wcu.scoreboard.writes
    act.fetch_scheduler_ops += wcu.fetch_scheduler_ops
    act.issue_scheduler_ops += wcu.issue_scheduler_ops
    act.stack_pushes += core.stack_pushes
    act.stack_pops += core.stack_pops
    act.stack_reads += core.stack_reads
    act.divergent_branches += core.divergent_branches
    act.branches += core.branches
    act.barriers += core.barriers
    act.issued_instructions += core.issued
    act.int_ops += core.exec_units.lane_ops("int")
    act.fp_ops += core.exec_units.lane_ops("fp")
    act.sfu_ops += core.exec_units.lane_ops("sfu")
    rf = core.regfile
    act.rf_reads += rf.operand_reads
    act.rf_writes += rf.operand_writes
    act.rf_bank_accesses += rf.bank_accesses
    act.collector_reads += rf.collector_reads
    act.collector_writes += rf.collector_writes
    act.rf_xbar_transfers += rf.xbar_transfers
    if core.ldst is not None:
        accumulate_ldst(act, core.ldst)


def accumulate_ldst(act: ActivityReport, ldst: LoadStoreUnit) -> None:
    """Add one load/store unit's counters into ``act``.

    The cycle engine's per-core report and the analytical estimator's
    sampled blocks both read the unit through this one function.
    """
    act.mem_instructions += ldst.instructions
    act.agu_ops += ldst.agu.sub_agu_ops
    act.coalescer_accesses += ldst.coalescer.accesses
    act.coalescer_prt_writes += ldst.coalescer.prt_writes
    act.mem_transactions += ldst.coalescer.transactions
    act.smem_accesses += ldst.smem_unit.bank_accesses
    act.smem_conflict_cycles += ldst.smem_unit.conflict_phases
    act.smem_xbar_transfers += ldst.smem_unit.xbar_transfers
    act.bank_conflict_checks += ldst.smem_unit.conflict_checks
    if ldst.l1 is not None:
        act.l1_reads += ldst.l1.reads
        act.l1_writes += ldst.l1.writes
        act.l1_misses += ldst.l1.misses
    act.const_reads += ldst.const_requests
    act.const_misses += ldst.const_misses
    act.tex_requests += ldst.tex_requests
    act.tex_accesses += ldst.tex_accesses
    act.tex_misses += ldst.tex_misses


def accumulate_memsys(act: ActivityReport, mem: MemorySystem) -> None:
    """Add the uncore counters into ``act`` (all but time-derived
    ``dram_refreshes``, which the launch envelope sets)."""
    act.noc_flits += mem.noc.flits
    act.l2_reads += mem.l2_reads
    act.l2_writes += mem.l2_writes
    act.l2_misses += mem.l2_misses
    act.mc_accesses += mem.mc_accesses
    act.dram_activates += mem.dram.activates
    act.dram_precharges += mem.dram.precharges
    act.dram_reads += mem.dram.reads
    act.dram_writes += mem.dram.writes


class ShardEngine:
    """Event loop over a core subset, steppable in bounded epochs.

    All timestamps are absolute shader cycles.  Heap entries are
    ``(wake_time, core_id)`` with *global* core ids, so the full-width
    engine pops events in exactly the order the old inline loop did.
    A core has at most one live heap entry; an epoch-barrier wake that
    precedes a core's scheduled wake supersedes it (the stale later
    entry is skipped on pop via ``_earliest``).
    """

    def __init__(self, config: GPUConfig, memsys: MemorySystem,
                 cores: Sequence[Core],
                 dispatch_order: Sequence[int]) -> None:
        self.config = config
        self.memsys = memsys
        self.cores_list: List[Core] = sorted(cores, key=lambda c: c.core_id)
        self.cores_by_id: Dict[int, Core] = {c.core_id: c
                                             for c in self.cores_list}
        self.dispatch_order = list(dispatch_order)
        self.queue: List[int] = []
        self.next_block = 0
        self.blocks_assigned = 0
        self.clock = 0.0
        self.final_time = 0.0
        self._heap: List[Tuple[float, int]] = []
        self._earliest: Dict[int, Optional[float]] = {}
        self.tracer = None      # ActivityTracer cutting on this clock
        self.launch = None

    # -- setup ----------------------------------------------------------------

    def prepare(self, launch, gmem, cmem) -> None:
        """Bind the launch to every core of the shard.

        The kernel is decoded once, here, into a table every core
        shares; each launch gets a fresh table (a chain reuses the
        cores across kernels).  The cores of one engine share one
        functional binding (:class:`~repro.sim.gpu.GPU` builds them so).
        """
        self.launch = launch
        if not self.cores_list:
            return
        table = decode_kernel(launch.kernel, self.config.warp_size,
                              self.cores_list[0].functional)
        for core in self.cores_list:
            core.prepare(launch.kernel, launch, gmem, cmem, table)

    def extend_queue(self, blocks: Iterable[int]) -> None:
        """Append granted block ids to the shard-local pending queue."""
        self.queue.extend(blocks)

    def load_assignments(self, assignments: Sequence[Tuple[int, int]]) -> None:
        """Apply a pre-planned initial placement (``(core_id, block)``)."""
        for cid, block in assignments:
            self._assign(self.cores_by_id[cid], block)

    def seed(self) -> None:
        """Arm the event heap: every core holding work wakes at cycle 0."""
        for core in self.cores_list:
            if not core.idle:
                self._push(0.0, core.core_id)

    # -- event plumbing -------------------------------------------------------

    def _assign(self, core: Core, block_id: int) -> None:
        core.assign_block(block_id)
        self.blocks_assigned += 1

    def _push(self, wake: float, cid: int) -> None:
        cur = self._earliest.get(cid)
        if cur is not None and cur <= wake:
            return  # an earlier live entry already covers this core
        self._earliest[cid] = wake
        heapq.heappush(self._heap, (wake, cid))

    @property
    def active(self) -> bool:
        """Whether any core still has a live scheduled event."""
        return any(t is not None for t in self._earliest.values())

    @property
    def unplaced(self) -> bool:
        """Queued blocks remain that no core ever picked up."""
        return self.next_block < len(self.queue)

    @property
    def backlog(self) -> int:
        """Granted-but-not-yet-placed blocks in the local queue."""
        return len(self.queue) - self.next_block

    @property
    def usable_slots(self) -> int:
        """Free block slots on cores the scheduler will actually feed
        (mid-run feeding only targets cores that have ever held work)."""
        return sum(core.free_slots for core in self.cores_list
                   if core.ever_used)

    # -- the loop -------------------------------------------------------------

    def step_epoch(self, horizon: Optional[float], max_cycles: float,
                   kernel_name: str) -> bool:
        """Advance until no event remains at or before ``horizon``.

        ``horizon=None`` means unbounded (run the shard dry) -- the
        degenerate case that reproduces the serial loop bit for bit.
        Returns whether live events remain past the horizon.
        """
        heap = self._heap
        earliest = self._earliest
        cores_by_id = self.cores_by_id
        queue = self.queue
        n_queued = len(queue)   # grants arrive only between epochs
        # Looked up once per epoch, on the class: a wrapper patched onto
        # Core.step still sees every step.
        step = Core.step
        heappop = heapq.heappop
        heappush = heapq.heappush
        bound = math.inf if horizon is None else horizon
        final_time = self.final_time
        tracer = self.tracer
        next_cut = math.inf if tracer is None else tracer.next_boundary
        while heap and heap[0][0] <= bound:
            now, cid = heappop(heap)
            if earliest[cid] != now:
                continue  # superseded by an earlier barrier wake
            if now > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles:.0f} cycles "
                    f"(kernel {kernel_name!r})"
                )
            if now > next_cut:
                tracer.cut(now)
                next_cut = tracer.next_boundary
            core = cores_by_id[cid]
            wake = step(core, now)
            if now > final_time:
                final_time = now
            # Feed newly freed slots.
            while self.next_block < n_queued and core.free_slots > 0 \
                    and core.ever_used:
                self._assign(core, queue[self.next_block])
                self.next_block += 1
                wake = now + 1.0 if wake is None else min(wake, now + 1.0)
            # The popped entry was this core's only live one, so the
            # next wake is pushed unconditionally (what _push does).
            earliest[cid] = wake
            if wake is not None:
                heappush(heap, (wake, cid))
        self.final_time = final_time
        if horizon is None:
            self.clock = final_time
        else:
            self.clock = horizon
            if tracer is not None:
                # Safe to close boundaries <= horizon: every remaining
                # local event lies strictly beyond them.
                tracer.cut_through(horizon)
        return self.active

    def barrier_fill(self) -> None:
        """Place freshly granted blocks at the epoch barrier.

        Same breadth-first pass discipline as the initial placement,
        restricted (like mid-run feeding) to cores that have ever held
        work; every core that receives blocks is woken at the barrier
        timestamp.
        """
        filling = True
        while filling and self.next_block < len(self.queue):
            filling = False
            for cid in self.dispatch_order:
                if self.next_block >= len(self.queue):
                    break
                core = self.cores_by_id[cid]
                if core.ever_used and core.free_slots > 0:
                    self._assign(core, self.queue[self.next_block])
                    self.next_block += 1
                    self._push(self.clock, cid)
                    filling = True

    # -- reporting ------------------------------------------------------------

    def collect(self, t: float) -> ActivityReport:
        """Shard-local cumulative activity at time ``t``.

        The launch fields count the blocks assigned *here*, so shard
        reports sum exactly to the whole launch (``GPU`` sets that
        instead).  A core counts as active once it has retired a block.
        """
        config = self.config
        act = ActivityReport()
        set_cycle_envelope(act, config, t)
        set_launch_envelope(act, config, self.launch.block.count,
                            self.blocks_assigned)
        used = [c for c in self.cores_list if c.blocks_executed > 0]
        act.active_cores = len(used)
        act.active_clusters = len(
            {c.core_id // config.cores_per_cluster for c in used})
        for core in self.cores_list:
            accumulate_core(act, core)
        accumulate_memsys(act, self.memsys)
        return act
