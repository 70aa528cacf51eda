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

Per-component activity counts mirror the cycle simulator's accounting
formulas (one warp-wide operand read touches ``ceil(lanes/4)`` banks,
one issue costs two WST reads and one write, a coalesced access emits
one transaction per distinct segment, ...) so the produced
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
from ..sim.activity import ActivityReport
from ..sim.cache import SetAssocCache
from ..sim.config import GPUConfig
from ..sim.core import DecodeTable, decode_kernel, max_resident_blocks
from ..sim.dram import refresh_operations
from ..sim.functional import (WarpContext, branch_taken_mask,
                              memory_addresses)
from ..sim.gpu import SimulationOutput
from ..sim.stack import ReconvergenceStack
from ..sim.wcu import INSTRUCTION_BYTES
from .base import (BackendCapabilities, BackendError, BackendInfo,
                   SimulationBackend)


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

    issued: int = 0
    warps_profiled: int = 0
    branches: int = 0
    divergent: int = 0
    barriers: int = 0
    stack_pushes: int = 0
    stack_pops: int = 0
    stack_reads: int = 0
    dst_writes: int = 0               # instructions writing a register
    unit_warp: Dict[str, int] = field(
        default_factory=lambda: {"int": 0, "fp": 0, "sfu": 0})
    unit_lanes: Dict[str, int] = field(
        default_factory=lambda: {"int": 0, "fp": 0, "sfu": 0})
    unit_occ: Dict[str, float] = field(
        default_factory=lambda: {"int": 0.0, "fp": 0.0, "sfu": 0.0})
    # Register file.
    rf_reads: int = 0
    rf_writes: int = 0
    rf_bank: int = 0
    coll_reads: int = 0
    coll_writes: int = 0
    rf_xbar: int = 0
    # LDST.
    mem_insts: int = 0
    agu_ops: int = 0
    ldst_occ: float = 0.0             # cycles the LDSTU is occupied
    coal_accesses: int = 0
    coal_prt: int = 0
    mem_txns: int = 0
    l1_reads: int = 0
    l1_writes: int = 0
    l1_misses: int = 0
    const_reads: int = 0
    const_misses: int = 0
    tex_requests: int = 0
    tex_accesses: int = 0
    tex_misses: int = 0
    smem_accesses: int = 0
    smem_conflicts: int = 0
    smem_xbar: int = 0
    smem_checks: int = 0
    # Uncore.
    noc_flits: int = 0
    l2_reads: int = 0
    l2_writes: int = 0
    l2_misses: int = 0
    mc_accesses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    dram_activates: int = 0
    dram_precharges: int = 0
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

    def __init__(self, max_sample_blocks: int = 2,
                 max_sample_warps: int = 1,
                 max_profile_instructions: int = 2_000_000) -> None:
        self.max_sample_blocks = max_sample_blocks
        self.max_sample_warps = max_sample_warps
        self.max_profile_instructions = max_profile_instructions

    # -- entry point --------------------------------------------------------

    def simulate(self, config: GPUConfig, launch: KernelLaunch, *,
                 max_cycles: float = 5e8,
                 gmem: Optional[np.ndarray] = None,
                 tracer=None) -> SimulationOutput:
        self.check_tracer(tracer)
        kernel = launch.kernel
        if gmem is None:
            gmem = launch.build_global_memory()
        cmem = launch.const_init
        if cmem is None:
            cmem = np.zeros(1, dtype=np.float64)

        n_blocks = launch.grid.count
        threads = launch.block.count
        warp_size = config.warp_size
        warps_per_block = -(-threads // warp_size)

        block_ids = _sample_indices(n_blocks, self.max_sample_blocks)
        warp_ids = _sample_indices(warps_per_block, self.max_sample_warps)

        tally = _Tally()
        mc_cold = _UncoreState(config)
        budget = [self.max_profile_instructions]
        # The cycle engine's decode: the same compiled ALU executors.
        table = decode_kernel(kernel, warp_size)
        for block_id in block_ids:
            self._profile_block(tally, mc_cold, config, kernel, table,
                                launch, block_id, gmem, cmem, warp_ids,
                                budget)

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
                       gmem: np.ndarray, cmem: np.ndarray,
                       warp_ids: List[int], budget: List[int]) -> None:
        threads = launch.block.count
        warp_size = config.warp_size
        smem = np.zeros(max(1, kernel.smem_words), dtype=np.float64)
        lane = np.arange(warp_size, dtype=np.float64)
        caches = _CoreCaches(config)

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
                    self._run_warp(ws, tally, uncore, caches, config,
                                   kernel, table, gmem, cmem, smem, budget)
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

        for ws in warps:
            tally.warps_profiled += 1
            tally.stack_pushes += ws.stack.pushes
            tally.stack_pops += ws.stack.pops
            tally.chain_total += ws.t
        tally.l1_reads += caches.l1_reads
        tally.l1_writes += caches.l1_writes
        tally.l1_misses += caches.l1_misses
        tally.const_misses += caches.const_misses
        tally.tex_misses += caches.tex_misses

    def _run_warp(self, ws: _WarpState, tally: _Tally,
                  uncore: "_UncoreState", caches: "_CoreCaches",
                  config: GPUConfig, kernel: Kernel, table: DecodeTable,
                  gmem: np.ndarray, cmem: np.ndarray, smem: np.ndarray,
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
        unit_warp, unit_lanes, unit_occ = (tally.unit_warp,
                                           tally.unit_lanes,
                                           tally.unit_occ)
        stack_advance = stack.advance
        guard_mask = ctx.guard_mask
        tokens = stack._tokens
        left = budget[0]
        n_issued = n_branch = n_div = rf_reads = rf_bank = 0
        coll_reads = coll_writes = rf_xbar = rf_writes = dst_writes = 0
        last_mask = None
        last_lanes = 0

        def flush() -> None:
            budget[0] = left
            tally.issued += n_issued
            tally.stack_reads += n_issued
            tally.branches += n_branch
            tally.divergent += n_div
            tally.rf_reads += rf_reads
            tally.rf_writes += rf_writes
            tally.rf_bank += rf_bank
            tally.coll_reads += coll_reads
            tally.coll_writes += coll_writes
            tally.rf_xbar += rf_xbar
            tally.dst_writes += dst_writes
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
                    f"{self.max_profile_instructions} instructions in "
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
                    tally.barriers += 1
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
                dst_writes += 1

            if unit == "mem":
                latency = self._mem_access(inst, ctx, mask, lanes, tally,
                                           uncore, caches, config, gmem,
                                           cmem, smem)
                stack_advance(pc + 1)
            else:
                unit_warp[unit] += 1
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

    # -- memory-path accounting ---------------------------------------------

    @staticmethod
    def _clamped(addrs, limit: int):
        """(address list, min, max) clamped into ``[0, limit)``.

        Sampled warps can chase values other (unsampled) warps would
        have produced; clamp rather than fault -- this is an estimator,
        not a functional checker.  The Python-list round trip is
        deliberate: every downstream consumer (sets, per-address cache
        lookups) wants scalars, and ``tolist`` once beats ``np.unique``
        / ``np.clip`` on warp-sized arrays by an order of magnitude.
        """
        alist = addrs.tolist()
        lo = min(alist)
        hi = max(alist)
        if lo < 0 or hi >= limit:
            top = limit - 1
            alist = [0 if a < 0 else (top if a > top else a) for a in alist]
            lo = max(0, min(lo, top))
            hi = max(0, min(hi, top))
        return alist, lo, hi

    def _mem_access(self, inst, ctx, mask, lanes, tally: _Tally,
                    uncore: "_UncoreState", caches: "_CoreCaches",
                    config: GPUConfig, gmem, cmem, smem) -> float:
        """Account one memory instruction; returns its latency estimate."""
        tally.mem_insts += 1
        addrs = memory_addresses(inst, ctx, mask)
        n_addr = len(addrs)
        agu_cycles = 0
        if n_addr > 0:
            activations = math.ceil(n_addr / config.sub_agu_width)
            tally.agu_ops += activations
            agu_cycles = math.ceil(activations / config.n_sub_agus)
        space = inst.mem_space

        if space == "global":
            is_write = inst.is_store
            occupancy = 0
            latency = 1.0
            if n_addr:
                alist, _, _ = self._clamped(addrs, len(gmem))
                size = (config.coalesce_segment_bytes
                        if config.coalescing_enabled else 32)
                bases = sorted({(a * 4) // size for a in alist})
                n_txn = len(bases)
                tally.coal_accesses += 1
                tally.coal_prt += n_txn
                tally.mem_txns += n_txn
                occupancy = n_txn
                # Load latency is the worst tier any segment reaches:
                # L1 hit, L2 hit, or the full DRAM round trip.
                latency = (config.l1_latency_shader_cycles
                           if caches.l1 is not None else 1.0)
                for seg in bases:
                    base = seg * size
                    served_by_l1 = False
                    if caches.l1 is not None:
                        if is_write:
                            # Write-through, no-write-allocate.
                            caches.l1.lookup(base, is_write=True,
                                             allocate=False)
                        elif caches.l1.lookup(base, is_write=False):
                            served_by_l1 = True
                    if not served_by_l1:
                        in_l2 = uncore.transaction(base, size, is_write,
                                                   tally)
                        tier = (uncore.l2_latency if in_l2
                                else uncore.global_latency)
                        if tier > latency:
                            latency = tier
            if is_write:
                if n_addr:
                    gmem[alist] = ctx.read(inst.srcs[1])[mask]
                latency = 4.0  # store-buffer handoff, not DRAM completion
            elif n_addr:
                ctx.regs[inst.dst.index][mask] = gmem[alist]
            tally.ldst_occ += max(agu_cycles, occupancy, 1)

        elif space == "shared":
            occupancy = 1
            latency = float(config.smem_latency_cycles)
            if n_addr:
                alist, lo, hi = self._clamped(addrs, len(smem))
                distinct = set(alist)
                n_banks = config.smem_banks
                if len(distinct) <= n_banks and hi - lo + 1 == len(distinct):
                    # Contiguous range no wider than the bank count:
                    # every address maps to a different bank.
                    phases = 1
                else:
                    per_bank: Dict[int, int] = {}
                    for a in distinct:
                        bank = a % n_banks
                        per_bank[bank] = per_bank.get(bank, 0) + 1
                    phases = max(per_bank.values())
                tally.smem_checks += 1
                tally.smem_accesses += len(distinct)
                tally.smem_conflicts += phases - 1
                tally.smem_xbar += n_addr
                occupancy = max(1, phases)
                latency += phases - 1
                if inst.is_store:
                    smem[alist] = ctx.read(inst.srcs[1])[mask]
                else:
                    ctx.regs[inst.dst.index][mask] = smem[alist]
            tally.ldst_occ += max(agu_cycles, occupancy, 1)

        elif space == "const":
            occupancy = 1
            latency = float(config.l1_latency_shader_cycles)
            if n_addr:
                alist, _, _ = self._clamped(addrs, len(cmem))
                distinct = sorted(set(alist))
                tally.const_reads += len(distinct)
                occupancy = max(1, len(distinct))
                for addr in distinct:
                    base = addr * 4
                    if not caches.const.lookup(base, is_write=False):
                        uncore.transaction(base, config.const_cache_line,
                                           False, tally)
                ctx.regs[inst.dst.index][mask] = cmem[alist]
            tally.ldst_occ += max(agu_cycles, occupancy, 1)

        elif space == "texture":
            if caches.tex is None:
                raise BackendError(
                    "texture fetch on a configuration without a texture "
                    "cache (set tex_cache_size > 0)"
                )
            occupancy = 1
            latency = float(config.l1_latency_shader_cycles)
            if n_addr:
                alist, _, _ = self._clamped(addrs, len(gmem))
                tex_line = config.tex_cache_line
                lines = sorted({(a * 4) // tex_line for a in alist})
                tally.tex_requests += n_addr
                tally.tex_accesses += len(lines)
                occupancy = max(1, len(lines))
                for line in lines:
                    base = line * tex_line
                    if not caches.tex.lookup(base, is_write=False):
                        uncore.transaction(base, tex_line, False, tally)
                ctx.regs[inst.dst.index][mask] = gmem[alist]
            tally.ldst_occ += max(agu_cycles, occupancy, 1)
        else:
            raise BackendError(f"unknown memory space {space!r}")

        return latency

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
        issue_block = tally.issued * per_block
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
        act.shader_cycles = cycles
        act.runtime_s = cycles / config.shader_clock_hz
        act.blocks_launched = n_blocks
        act.warps_launched = total_warps
        act.threads_launched = launch.total_threads
        act.active_cores = n_active
        act.active_clusters = min(config.n_clusters, n_blocks)

        issued = tally.issued * f
        act.issued_instructions = issued
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
        act.scoreboard_writes = 2.0 * tally.dst_writes * f
        act.scoreboard_searches = issued if config.has_scoreboard else 0.0

        busy_per_core = min(
            core_cycles,
            blocks_per_core * issue_block / max(1, config.issue_width))
        act.core_busy_cycles = busy_per_core * n_active
        stall = max(0.0, core_cycles - busy_per_core) * n_active
        act.stall_dependency = stall
        act.fetch_scheduler_ops = act.core_busy_cycles + stall
        act.issue_scheduler_ops = act.core_busy_cycles + stall

        act.stack_pushes = tally.stack_pushes * f
        act.stack_pops = tally.stack_pops * f
        act.stack_reads = tally.stack_reads * f
        act.branches = tally.branches * f
        act.divergent_branches = tally.divergent * f
        act.barriers = tally.barriers * f

        act.int_ops = tally.unit_lanes["int"] * f
        act.fp_ops = tally.unit_lanes["fp"] * f
        act.sfu_ops = tally.unit_lanes["sfu"] * f

        act.rf_reads = tally.rf_reads * f
        act.rf_writes = tally.rf_writes * f
        act.rf_bank_accesses = tally.rf_bank * f
        act.collector_reads = tally.coll_reads * f
        act.collector_writes = tally.coll_writes * f
        act.rf_xbar_transfers = tally.rf_xbar * f

        act.mem_instructions = tally.mem_insts * f
        act.agu_ops = tally.agu_ops * f
        act.coalescer_accesses = tally.coal_accesses * f
        act.coalescer_prt_writes = tally.coal_prt * f
        act.mem_transactions = tally.mem_txns * f
        act.smem_accesses = tally.smem_accesses * f
        act.smem_conflict_cycles = tally.smem_conflicts * f
        act.smem_xbar_transfers = tally.smem_xbar * f
        act.bank_conflict_checks = tally.smem_checks * f
        act.l1_reads = tally.l1_reads * f
        act.l1_writes = tally.l1_writes * f
        act.l1_misses = min(tally.l1_misses * f,
                            act.l1_reads + act.l1_writes)
        act.const_reads = tally.const_reads * f
        act.const_misses = min(tally.const_misses * f, act.const_reads)
        act.tex_requests = tally.tex_requests * f
        act.tex_accesses = tally.tex_accesses * f
        act.tex_misses = min(tally.tex_misses * f, act.tex_accesses)

        act.noc_flits = tally.noc_flits * f
        act.l2_reads = tally.l2_reads * f
        act.l2_writes = tally.l2_writes * f
        act.l2_misses = min(tally.l2_misses * f,
                            act.l2_reads + act.l2_writes)
        act.mc_accesses = tally.mc_accesses * f
        act.dram_reads = tally.dram_reads * f
        act.dram_writes = tally.dram_writes * f
        act.dram_activates = tally.dram_activates * f
        act.dram_precharges = min(tally.dram_precharges * f,
                                  act.dram_activates)
        act.dram_refreshes = refresh_operations(config, act.runtime_s)
        return act, cycles


class _CoreCaches:
    """Per-sampled-block cache models (fresh per block, like a cold core).

    The counters mirror what one core's LDSTU caches would record for
    this block; cross-block reuse inside one core is ignored -- a
    first-order approximation the validation harness quantifies.
    """

    def __init__(self, config: GPUConfig) -> None:
        self.l1: Optional[SetAssocCache] = None
        if config.l1_size > 0:
            self.l1 = SetAssocCache(config.l1_size, config.l1_line,
                                    config.l1_assoc, name="L1D~")
        self.const = SetAssocCache(config.const_cache_size,
                                   config.const_cache_line,
                                   config.const_cache_assoc, name="constL1~")
        self.tex: Optional[SetAssocCache] = None
        if config.tex_cache_size > 0:
            self.tex = SetAssocCache(config.tex_cache_size,
                                     config.tex_cache_line,
                                     config.tex_cache_assoc, name="texL1~")

    @property
    def l1_reads(self) -> int:
        return self.l1.reads if self.l1 is not None else 0

    @property
    def l1_writes(self) -> int:
        return self.l1.writes if self.l1 is not None else 0

    @property
    def l1_misses(self) -> int:
        return self.l1.misses if self.l1 is not None else 0

    @property
    def const_misses(self) -> int:
        return self.const.misses

    @property
    def tex_misses(self) -> int:
        return self.tex.misses if self.tex is not None else 0


class _UncoreState:
    """Shared L2 / memory-controller / DRAM open-row counting model."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
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

    def transaction(self, addr: int, size: int, is_write: bool,
                    tally: _Tally) -> bool:
        """One post-L1 memory transaction (mirrors MemorySystem counts).

        Returns True when the L2 served it (no DRAM involvement).
        """
        cfg = self.config
        request_bytes = size if is_write else 8
        tally.noc_flits += 1 + -(-request_bytes // cfg.noc_flit_bytes)
        if self.l2 is not None:
            partition = (addr // cfg.l2_line) % cfg.n_mem_partitions
            bank = self.l2[partition]
            hit = bank.lookup(addr, is_write=is_write, allocate=not is_write)
            if is_write:
                tally.l2_writes += 1
            else:
                tally.l2_reads += 1
            if hit:
                return True
            tally.l2_misses += 1
        tally.mc_accesses += 1
        self._dram_fill(addr, size, is_write, tally)
        return False

    def _dram_fill(self, addr: int, size: int, is_write: bool,
                   tally: _Tally) -> None:
        cfg = self.config
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
                    tally.dram_precharges += 1
                tally.dram_activates += 1
                self.open_rows[key] = row_id
            if is_write:
                tally.dram_writes += 1
            else:
                tally.dram_reads += 1
            tally.dram_bytes += min(burst, size - offset)
            offset += burst
