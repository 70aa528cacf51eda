"""First-order analytical performance/activity estimator (no cycle loop).

A Hong&Kim-flavored model (*An analytical model for a GPU architecture
with memory-level and thread-level parallelism awareness*, ISCA'09): the
kernel's dynamic behaviour is measured by *functionally* executing a
small, deterministic sample of blocks and warps -- instruction at a
time, no event loop, no contention modelling -- and the whole-GPU cycle
count is then estimated from closed-form throughput and latency bounds.

Why sample-and-extrapolate instead of pure static analysis: loop trip
counts and divergence patterns are data-dependent, so a purely static
walk of the IR cannot count dynamic instructions.  Executing a handful
of warps through the existing functional layer
(:mod:`repro.sim.functional`, :class:`~repro.sim.stack.
ReconvergenceStack`) measures them exactly for the sampled warps, and
GPU kernels are overwhelmingly homogeneous across blocks -- the paper's
own Table I workloads all are.

The memory-path counts *are* the cycle simulator's: each sampled block
drives a real :class:`~repro.sim.ldst.LoadStoreUnit` (AGU, coalescer,
bank-conflict unit, L1/constant/texture caches) in front of a
contention-free L2/DRAM counting model, and its counters are read with
the cycle engine's :func:`~repro.sim.shard.accumulate_ldst`.  The
remaining counts follow the cycle simulator's formulas (one warp-wide
operand read touches ``ceil(lanes/4)`` banks, one issue costs two WST
reads and one write, ...), so the produced
:class:`~repro.sim.activity.ActivityReport` feeds the unchanged power
model.  The cycle estimate is::

    W      = concurrent blocks/core x warps/block        (occupancy)
    work_c = per-core work: blocks/core x per-block issue,
             unit-occupancy and LDST-occupancy totals
    T_core = max(issue, int, fp, sfu, ldst throughput bounds,
                 rounds x per-warp dependent-latency chain)
    T_dram = bytes moved / DRAM bandwidth (in shader cycles)
    cycles = max(T_core, T_dram)

Accuracy is explicitly first-order: the ``backends`` validation
experiment (:mod:`repro.backends.validation`) quantifies the error
against the ``cycle`` backend rather than this module claiming any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..isa.cfg import EXIT_PC_SENTINEL
from ..isa.kernel import Kernel
from ..isa.launch import KernelLaunch
from ..sim.activity import (ActivityReport, set_cycle_envelope,
                            set_launch_envelope)
from ..sim.cache import SetAssocCache
from ..sim.config import GPUConfig
from ..sim.core import DecodeTable, decode_kernel, max_resident_blocks
from ..sim.functional import (WarpContext, branch_taken_mask,
                              memory_addresses)
from ..sim.gpu import SimulationOutput
from ..sim.ldst import LoadStoreUnit
from ..sim.shard import accumulate_ldst
from ..sim.stack import ReconvergenceStack
from ..sim.wcu import INSTRUCTION_BYTES
from .base import (BackendCapabilities, BackendError, BackendInfo,
                   SimulationBackend)


#: Blocks and warps per block the profile executes, and its budget of
#: dynamic warp instructions over all of them.
MAX_SAMPLE_BLOCKS = 2
MAX_SAMPLE_WARPS = 1
MAX_PROFILE_INSTRUCTIONS = 2_000_000


def _sample_indices(n: int, k: int) -> List[int]:
    """Up to ``k`` evenly strided indices out of ``range(n)``.

    Always includes 0 and n-1 (boundary blocks/warps carry the partial
    warps and edge-condition branches); fully deterministic.
    """
    if n <= k:
        return list(range(n))
    if k <= 1:
        return [0]
    idx = {round(i * (n - 1) / (k - 1)) for i in range(k)}
    return sorted(idx)


@dataclass
class _WarpState:
    """One sampled warp mid-profile.

    ``t`` and ``ready`` drive a scalar in-order timing model: ``t`` is
    the warp's current issue time, ``ready[r]`` when register ``r``'s
    pending result lands.  With a scoreboard an instruction issues at
    ``max(t + 1, ready[src]...)`` (dependents wait for writeback, the
    rest flows); without one the warp blocks until each instruction
    completes, so ``t`` advances by the full latency.  The final ``t``
    is the warp's serial-completion estimate used for the
    latency-chain cycle bound.
    """

    ctx: WarpContext
    stack: ReconvergenceStack
    ready: List[float]
    done: bool = False
    at_barrier: bool = False
    t: float = 0.0


@dataclass
class _Tally:
    """Raw counts accumulated over all sampled warps (pre-scaling)."""

    warps_profiled: int = 0
    #: Counted events named as in the report: issue, stack and register
    #: file from the warps, the rest from the sampled blocks' LDST units
    #: and the uncore model.
    counts: ActivityReport = field(default_factory=ActivityReport)
    unit_lanes: Dict[str, int] = field(
        default_factory=lambda: {"int": 0, "fp": 0, "sfu": 0})
    unit_occ: Dict[str, float] = field(
        default_factory=lambda: {"int": 0.0, "fp": 0.0, "sfu": 0.0})
    ldst_occ: float = 0.0             # cycles the LDSTU is occupied
    dram_bytes: float = 0.0           # data moved to/from DRAM
    chain_total: float = 0.0          # sum of per-warp chain estimates


class AnalyticalBackend(SimulationBackend):
    """Sampled-profile + closed-form-throughput performance estimator."""

    name = "analytical"
    #: Model version: enters non-default cache keys, so bump on any
    #: change to the sampling, the counter formulas or the cycle model.
    version = "1.0"
    #: Nominal expected |power| error: the Table IV suite measures ~7%
    #: mean (see the `backends` experiment); promised as 8% with margin.
    info = BackendInfo(
        tier=1, expected_error=0.08, relative_cost=0.01,
        capabilities=BackendCapabilities(supports_tracing=False,
                                         exact=False),
        auto=True,
        description="sampled-profile closed-form estimator")

    # -- entry point --------------------------------------------------------

    def simulate(self, config: GPUConfig, launch: KernelLaunch, *,
                 max_cycles: float = 5e8,
                 gmem: Optional[np.ndarray] = None,
                 tracer=None) -> SimulationOutput:
        self.check_tracer(tracer)
        kernel = launch.kernel
        if gmem is None:
            gmem = launch.build_global_memory()

        n_blocks = launch.grid.count
        threads = launch.block.count
        warp_size = config.warp_size
        warps_per_block = -(-threads // warp_size)

        block_ids = _sample_indices(n_blocks, MAX_SAMPLE_BLOCKS)
        warp_ids = _sample_indices(warps_per_block, MAX_SAMPLE_WARPS)

        tally = _Tally()
        mc_cold = _UncoreState(config, tally)
        budget = [MAX_PROFILE_INSTRUCTIONS]
        # The cycle engine's decode: the same compiled ALU executors.
        table = decode_kernel(kernel, warp_size)
        for block_id in block_ids:
            self._profile_block(tally, mc_cold, config, kernel, table,
                                launch, block_id, gmem, warp_ids, budget)

        activity, cycles = self._extrapolate(
            tally, config, launch, n_sampled_blocks=len(block_ids),
            n_sampled_warps=len(warp_ids))
        if cycles > max_cycles:
            raise BackendError(
                f"analytical estimate of {cycles:.0f} cycles exceeds the "
                f"max_cycles watchdog ({max_cycles:.0f}) for kernel "
                f"{kernel.name!r}"
            )
        activity.validate()
        return SimulationOutput(config=config, launch=launch,
                                activity=activity, gmem=gmem,
                                cycles=cycles)

    # -- sampled functional profiling ---------------------------------------

    def _profile_block(self, tally: _Tally, uncore: "_UncoreState",
                       config: GPUConfig, kernel: Kernel,
                       table: DecodeTable,
                       launch: KernelLaunch, block_id: int,
                       gmem: np.ndarray, warp_ids: List[int],
                       budget: List[int]) -> None:
        threads = launch.block.count
        warp_size = config.warp_size
        smem = np.zeros(max(1, kernel.smem_words), dtype=np.float64)
        lane = np.arange(warp_size, dtype=np.float64)
        # A fresh unit per block, like a cold core: cross-block reuse
        # inside one core is ignored (a first-order approximation).
        ldst = LoadStoreUnit(config, uncore, gmem, launch.const_init)

        warps: List[_WarpState] = []
        for w in warp_ids:
            tid = lane + w * warp_size
            specials = {
                "tid": tid,
                "ctaid": np.full(warp_size, float(block_id)),
                "ntid": np.full(warp_size, float(threads)),
                "nctaid": np.full(warp_size, float(launch.grid.count)),
                "laneid": lane.copy(),
                "warpid": np.full(warp_size, float(w)),
                "gtid": tid + block_id * threads,
            }
            ctx = WarpContext(kernel.n_regs, kernel.n_preds, specials,
                              warp_size)
            warps.append(_WarpState(
                ctx=ctx,
                stack=ReconvergenceStack(warp_size,
                                         initial_mask=tid < threads),
                ready=[0.0] * kernel.n_regs,
            ))

        live = list(warps)
        while live:
            for ws in live:
                if not ws.at_barrier:
                    self._run_warp(ws, tally, ldst, config, kernel, table,
                                   smem, budget)
            live = [w for w in live if not w.done]
            if live:
                if not all(w.at_barrier for w in live):
                    raise BackendError(
                        f"analytical profile stuck in kernel "
                        f"{kernel.name!r} (block {block_id})"
                    )
                # Every sampled live warp arrived: release the barrier,
                # synchronising clocks to the slowest arrival.
                t_sync = max(w.t for w in live)
                for w in live:
                    w.at_barrier = False
                    w.t = t_sync

        counts = tally.counts
        for ws in warps:
            tally.warps_profiled += 1
            counts.stack_pushes += ws.stack.pushes
            counts.stack_pops += ws.stack.pops
            tally.chain_total += ws.t
        accumulate_ldst(counts, ldst)

    def _run_warp(self, ws: _WarpState, tally: _Tally,
                  ldst: LoadStoreUnit, config: GPUConfig, kernel: Kernel,
                  table: DecodeTable, smem: np.ndarray,
                  budget: List[int]) -> None:
        """Execute one warp until it exits or reaches a barrier.

        This loop runs once per dynamic instruction of every sampled
        warp -- it IS the backend's cost, so it trades a little clarity
        for speed: config scalars and method lookups are hoisted out of
        the loop, hot counters accumulate in locals and flush into the
        tally on exit, and the active-lane popcount is memoised by mask
        identity (stack tokens never mutate their masks in place).
        """
        stack = ws.stack
        ctx = ws.ctx
        ready = ws.ready
        t = ws.t
        has_sb = config.has_scoreboard
        branch_latency = config.branch_latency_cycles
        warp_size = config.warp_size
        occ_by_unit = {"int": max(1, warp_size // config.n_int_lanes),
                       "fp": max(1, warp_size // config.n_fp_lanes),
                       "sfu": max(1, warp_size // config.n_sfu)}
        lat_by_unit = {
            u: occ + (config.sfu_latency_cycles if u == "sfu"
                      else config.alu_latency_cycles)
            for u, occ in occ_by_unit.items()}
        unit_lanes, unit_occ = tally.unit_lanes, tally.unit_occ
        stack_advance = stack.advance
        guard_mask = ctx.guard_mask
        tokens = stack._tokens
        left = budget[0]
        n_issued = n_branch = n_div = rf_reads = rf_bank = 0
        coll_reads = coll_writes = rf_xbar = rf_writes = 0
        last_mask = None
        last_lanes = 0

        def flush() -> None:
            budget[0] = left
            counts = tally.counts
            counts.issued_instructions += n_issued
            counts.stack_reads += n_issued
            counts.branches += n_branch
            counts.divergent_branches += n_div
            counts.rf_reads += rf_reads
            counts.rf_writes += rf_writes
            counts.rf_bank_accesses += rf_bank
            counts.collector_reads += coll_reads
            counts.collector_writes += coll_writes
            counts.rf_xbar_transfers += rf_xbar
            ws.t = t

        while True:
            if not tokens:
                ws.done = True
                flush()
                return
            top = tokens[-1]
            pc = top.pc
            if pc == EXIT_PC_SENTINEL:
                ws.done = True
                flush()
                return
            left -= 1
            if left < 0:
                raise BackendError(
                    f"analytical profile exceeded "
                    f"{MAX_PROFILE_INSTRUCTIONS} instructions in "
                    f"kernel {kernel.name!r} -- kernel too irregular for "
                    f"the sampled estimator"
                )
            active = top.mask
            entry = table[pc]
            inst = entry.inst
            n_issued += 1
            unit = entry.unit

            if unit == "ctrl":
                op = inst.op
                t += 1.0
                if op == "NOP":
                    stack_advance(pc + 1)
                elif op == "JMP":
                    stack_advance(inst.target)
                    t += branch_latency
                elif op == "BRA":
                    n_branch += 1
                    for r in inst.reads_regs:
                        if ready[r] > t:
                            t = ready[r]
                    taken = branch_taken_mask(inst, ctx, active)
                    if stack.diverge(taken, inst.target, pc + 1,
                                     inst.reconv_pc):
                        n_div += 1
                    t += branch_latency
                elif op == "BAR":
                    tally.counts.barriers += 1
                    stack_advance(pc + 1)
                    ws.at_barrier = True
                    flush()
                    return
                elif op == "EXIT":
                    mask = guard_mask(inst, active)
                    stack.exit_lanes(mask)
                    if not tokens:
                        ws.done = True
                        flush()
                        return
                    if tokens[-1].pc == pc:
                        stack_advance(pc + 1)
                else:
                    raise BackendError(f"unhandled control op {op!r}")
                continue

            guard = inst.guard
            mask = active if guard is None else guard_mask(inst, active)
            if mask is last_mask:
                lanes = last_lanes
            else:
                lanes = int(mask.sum())
                last_mask = mask
                last_lanes = lanes
            srcs = inst.reads_regs
            n_src = len(srcs)
            per_op = max(1, -(-lanes // 4))  # RegisterFile bank-port width
            if n_src > 0:
                rf_reads += n_src
                rf_bank += n_src * per_op
                coll_writes += n_src
                rf_xbar += n_src * per_op
            coll_reads += 1
            dst = inst.writes_reg
            if dst is not None:
                rf_writes += 1
                rf_bank += per_op
                rf_xbar += per_op

            if unit == "mem":
                latency = _mem_access(ldst, inst, ctx, mask, smem, tally)
                stack_advance(pc + 1)
            else:
                unit_lanes[unit] += lanes
                unit_occ[unit] += occ_by_unit[unit]
                latency = lat_by_unit[unit]
                entry.execute(ctx, mask, lanes)
                stack_advance(pc + 1)
            # In-order timing: issue one beat after the previous
            # instruction, but no earlier than the operands' writeback.
            start = t + 1.0
            for r in srcs:
                if ready[r] > start:
                    start = ready[r]
            if has_sb:
                # Scoreboard: the warp keeps issuing; only dependents
                # wait (tracked through ``ready``).
                t = start
                if dst is not None:
                    ready[dst] = start + latency
            else:
                # No scoreboard: the warp blocks until completion, so
                # the full latency lands on the issue chain itself.
                t = start + latency

    # -- extrapolation -------------------------------------------------------

    def _extrapolate(self, tally: _Tally, config: GPUConfig,
                     launch: KernelLaunch, n_sampled_blocks: int,
                     n_sampled_warps: int):
        kernel = launch.kernel
        n_blocks = launch.grid.count
        threads = launch.block.count
        warps_per_block = -(-threads // config.warp_size)
        total_warps = warps_per_block * n_blocks
        sampled_warps = max(1, tally.warps_profiled)
        #: Extrapolation factor: sampled-warp counts -> whole-grid counts.
        f = total_warps / sampled_warps

        # Occupancy (the same limit arithmetic as Core.prepare).
        concurrent = max(1, max_resident_blocks(config, kernel, threads))

        n_active = min(config.n_cores, n_blocks)
        blocks_per_core = math.ceil(n_blocks / n_active)
        concurrent = min(concurrent, blocks_per_core)
        rounds = math.ceil(blocks_per_core / concurrent)

        # Per-block averages from the sample (warp-extrapolated).
        warp_scale = warps_per_block / n_sampled_warps
        per_block = warp_scale / max(1, n_sampled_blocks)
        counts = tally.counts
        issue_block = counts.issued_instructions * per_block
        ldst_block = tally.ldst_occ * per_block
        unit_block = {u: tally.unit_occ[u] * per_block
                      for u in tally.unit_occ}
        chain_warp = tally.chain_total / sampled_warps

        # Throughput bounds per core (all blocks it executes), plus the
        # dependent-latency bound: warps of one round overlap, rounds
        # serialise.
        bounds = [blocks_per_core * issue_block / max(1, config.issue_width),
                  blocks_per_core * ldst_block,
                  rounds * chain_warp]
        bounds.extend(blocks_per_core * occ for occ in unit_block.values())
        core_cycles = max(bounds)

        # Whole-GPU DRAM bandwidth bound.
        dram_bytes = tally.dram_bytes * f
        dram_cycles = (dram_bytes / config.dram_bandwidth_bytes_per_s
                       * config.shader_clock_hz)
        cycles = max(1.0, core_cycles, dram_cycles)

        act = ActivityReport()
        set_cycle_envelope(act, config, cycles)
        set_launch_envelope(act, config, threads, n_blocks)
        act.active_cores = n_active
        act.active_clusters = min(config.n_clusters, n_blocks)

        # Every counted event scales from the sample to the grid.
        for name in _COUNTED:
            setattr(act, name, getattr(counts, name) * f)
        issued = act.issued_instructions
        act.fetches = issued
        act.decodes = issued
        act.icache_reads = issued
        kernel_lines = math.ceil(
            max(1, len(kernel.instructions)) * INSTRUCTION_BYTES
            / config.icache_line)
        act.icache_misses = min(float(kernel_lines * n_active), issued)
        act.wst_reads = 2.0 * issued
        act.wst_writes = issued
        act.ibuffer_searches = issued
        act.ibuffer_writes = issued
        # reserve + release each write once per register-writing inst.
        act.scoreboard_writes = 2.0 * counts.rf_writes * f
        act.scoreboard_searches = issued if config.has_scoreboard else 0.0

        busy_per_core = min(
            core_cycles,
            blocks_per_core * issue_block / max(1, config.issue_width))
        act.core_busy_cycles = busy_per_core * n_active
        stall = max(0.0, core_cycles - busy_per_core) * n_active
        act.stall_dependency = stall
        act.fetch_scheduler_ops = act.core_busy_cycles + stall
        act.issue_scheduler_ops = act.core_busy_cycles + stall

        act.int_ops = tally.unit_lanes["int"] * f
        act.fp_ops = tally.unit_lanes["fp"] * f
        act.sfu_ops = tally.unit_lanes["sfu"] * f

        act.l1_misses = min(act.l1_misses, act.l1_reads + act.l1_writes)
        act.const_misses = min(act.const_misses, act.const_reads)
        act.tex_misses = min(act.tex_misses, act.tex_accesses)
        act.l2_misses = min(act.l2_misses, act.l2_reads + act.l2_writes)
        act.dram_precharges = min(act.dram_precharges, act.dram_activates)
        return act, cycles


#: The events ``_Tally.counts`` holds.
_COUNTED = (
    "issued_instructions", "stack_pushes", "stack_pops", "stack_reads",
    "branches", "divergent_branches", "barriers", "rf_reads", "rf_writes",
    "rf_bank_accesses", "collector_reads", "collector_writes",
    "rf_xbar_transfers",
    "mem_instructions", "agu_ops", "coalescer_accesses",
    "coalescer_prt_writes", "mem_transactions", "smem_accesses",
    "smem_conflict_cycles", "smem_xbar_transfers", "bank_conflict_checks",
    "l1_reads", "l1_writes", "l1_misses", "const_reads", "const_misses",
    "tex_requests", "tex_accesses", "tex_misses",
    "noc_flits", "l2_reads", "l2_writes", "l2_misses", "mc_accesses",
    "dram_reads", "dram_writes", "dram_activates", "dram_precharges",
)


def _mem_access(ldst: LoadStoreUnit, inst, ctx: WarpContext, mask,
                smem: np.ndarray, tally: _Tally) -> float:
    """Run one memory instruction through the sampled block's LDST unit
    and return its latency estimate.

    Three rules are the estimator's own.  A sampled warp can chase
    values that unsampled warps would have produced, so an address
    outside the space is clamped into it rather than faulted on.  A
    constant or texture fetch costs the L1 latency even when it misses.
    A space the unit cannot serve (a texture fetch without a texture
    cache) is a :class:`BackendError`.
    """
    space = inst.mem_space
    try:
        memory = ldst.memory_for(space, smem)
    except (RuntimeError, ValueError) as exc:
        raise BackendError(str(exc)) from exc
    addrs = memory_addresses(inst, ctx, mask)
    words = addrs.tolist()
    top = len(memory) - 1
    if words and (min(words) < 0 or max(words) > top):
        words = [0 if a < 0 else (top if a > top else a) for a in words]
        addrs = words
    # Time 0: the completion is the latency itself.
    completion, busy = ldst.access(inst, ctx, mask, addrs, words, memory,
                                   0.0)
    tally.ldst_occ += busy
    if space == "const" or space == "texture":
        return float(ldst.config.l1_latency_shader_cycles)
    return completion


class _UncoreState:
    """Shared L2 / memory-controller / DRAM open-row counting model.

    Stands in for :class:`~repro.sim.memsys.MemorySystem` behind the
    sampled blocks' load/store units: the same counts, no contention.
    """

    def __init__(self, config: GPUConfig, tally: _Tally) -> None:
        self.config = config
        self.tally = tally
        self.l2: Optional[List[SetAssocCache]] = None
        if config.has_l2:
            per_bank = config.l2_size // config.n_mem_partitions
            self.l2 = [SetAssocCache(per_bank, config.l2_line,
                                     config.l2_assoc, name=f"L2~[{i}]")
                       for i in range(config.n_mem_partitions)]
        #: (channel, bank) -> open row id.
        self.open_rows: Dict[tuple, int] = {}
        shader_hz = config.shader_clock_hz
        dram_scale = shader_hz / config.dram_clock_hz
        noc_round_trip = 2 * 5 * config.shader_to_uncore
        #: L2-hit round trip in shader cycles.
        self.l2_latency = (config.l2_latency_uncore_cycles
                           * config.shader_to_uncore + noc_round_trip)
        #: Uncontended global-load round trip in shader cycles.
        self.global_latency = (
            config.dram_latency_ns * 1e-9 * shader_hz
            + (config.dram_t_rcd + config.dram_t_cas) * dram_scale
            + noc_round_trip
        )

    def transaction(self, addr: int, size: int, now: float,
                    is_write: bool) -> float:
        """One post-L1 memory transaction; returns its completion time.

        Counts what :meth:`MemorySystem.transaction` counts and answers
        ``now`` plus the round trip of the tier that served it: the L2
        on a hit, DRAM otherwise.
        """
        cfg = self.config
        mem = self.tally.counts
        request_bytes = size if is_write else 8
        mem.noc_flits += 1 + -(-request_bytes // cfg.noc_flit_bytes)
        if self.l2 is not None:
            partition = (addr // cfg.l2_line) % cfg.n_mem_partitions
            bank = self.l2[partition]
            hit = bank.lookup(addr, is_write=is_write, allocate=not is_write)
            if is_write:
                mem.l2_writes += 1
            else:
                mem.l2_reads += 1
            if hit:
                return now + self.l2_latency
            mem.l2_misses += 1
        mem.mc_accesses += 1
        self._dram_fill(addr, size, is_write)
        return now + self.global_latency

    def _dram_fill(self, addr: int, size: int, is_write: bool) -> None:
        cfg = self.config
        mem = self.tally.counts
        burst = cfg.dram_burst_bytes
        offset = 0
        while offset < size:
            a = addr + offset
            line = a // max(cfg.l2_line, 1)
            channel = line % cfg.n_mem_partitions
            row = a // cfg.dram_row_bytes
            bank = row % cfg.dram_banks
            row_id = row // cfg.dram_banks
            key = (channel, bank)
            open_row = self.open_rows.get(key, -1)
            if open_row != row_id:
                if open_row >= 0:
                    mem.dram_precharges += 1
                mem.dram_activates += 1
                self.open_rows[key] = row_id
            if is_write:
                mem.dram_writes += 1
            else:
                mem.dram_reads += 1
            self.tally.dram_bytes += min(burst, size - offset)
            offset += burst
