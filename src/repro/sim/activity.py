"""Activity information: the interface between performance and power.

Fig. 1 of the paper: the performance simulator "generates utilization
information and activity factors alpha for all components of the GPU
architecture", which the power model consumes.  :class:`ActivityReport`
is that interface -- per-component access counts plus timing, aggregated
over the whole GPU for one kernel execution.

Counts are in *events* whose per-event energies the architecture tier of
the power model defines: e.g. one ``rf_read`` is one warp-wide operand
read from one register bank group; one ``int_op`` is one lane executing
one integer instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from ..serialize import (Serializable, scalar_fields_from_dict,
                         scalar_fields_to_dict)
from .config import GPUConfig
from .dram import refresh_operations


@dataclass
class ActivityReport(Serializable):
    """Access counts and utilization for one simulated kernel run."""

    # -- timing ---------------------------------------------------------------
    shader_cycles: float = 0.0        # kernel duration in shader cycles
    runtime_s: float = 0.0            # kernel duration in seconds
    core_busy_cycles: float = 0.0     # sum over cores of busy cycles
    active_cores: int = 0             # cores that received >= 1 block
    active_clusters: int = 0          # clusters with >= 1 active core
    blocks_launched: int = 0
    warps_launched: int = 0
    threads_launched: int = 0

    # -- stall attribution (cycles a stepped core could not issue) ------------
    stall_dependency: float = 0.0
    stall_unit_busy: float = 0.0
    stall_ldst_busy: float = 0.0
    stall_barrier: float = 0.0
    stall_empty: float = 0.0

    # -- warp control unit ----------------------------------------------------
    fetches: float = 0.0              # instructions fetched
    icache_reads: float = 0.0
    icache_misses: float = 0.0
    decodes: float = 0.0
    wst_reads: float = 0.0            # warp status table
    wst_writes: float = 0.0
    ibuffer_searches: float = 0.0     # warp-ID tag match on issue
    ibuffer_writes: float = 0.0
    scoreboard_searches: float = 0.0
    scoreboard_writes: float = 0.0
    fetch_scheduler_ops: float = 0.0  # rotating-priority encoder activations
    issue_scheduler_ops: float = 0.0
    stack_pushes: float = 0.0         # reconvergence stack
    stack_pops: float = 0.0
    stack_reads: float = 0.0
    divergent_branches: float = 0.0
    branches: float = 0.0
    barriers: float = 0.0

    # -- instructions ---------------------------------------------------------
    issued_instructions: float = 0.0  # warp instructions issued
    int_ops: float = 0.0              # lane-level integer operations
    fp_ops: float = 0.0               # lane-level floating-point operations
    sfu_ops: float = 0.0              # lane-level SFU operations

    # -- register file --------------------------------------------------------
    rf_reads: float = 0.0             # warp-operand reads (bank group access)
    rf_writes: float = 0.0
    rf_bank_accesses: float = 0.0     # individual bank accesses
    collector_reads: float = 0.0      # operand collector entry traffic
    collector_writes: float = 0.0
    rf_xbar_transfers: float = 0.0

    # -- LDST unit ------------------------------------------------------------
    mem_instructions: float = 0.0
    agu_ops: float = 0.0              # sub-AGU activations
    coalescer_accesses: float = 0.0   # warp accesses through the coalescer
    coalescer_prt_writes: float = 0.0 # pending-request-table entries written
    mem_transactions: float = 0.0     # post-coalescing memory transactions
    smem_accesses: float = 0.0        # shared-memory bank accesses
    smem_conflict_cycles: float = 0.0 # extra serialization phases
    smem_xbar_transfers: float = 0.0
    bank_conflict_checks: float = 0.0
    l1_reads: float = 0.0
    l1_writes: float = 0.0
    l1_misses: float = 0.0
    const_reads: float = 0.0
    const_misses: float = 0.0
    tex_requests: float = 0.0   # lane-level texture fetches
    tex_accesses: float = 0.0   # texture cache line accesses
    tex_misses: float = 0.0

    # -- uncore ---------------------------------------------------------------
    noc_flits: float = 0.0
    l2_reads: float = 0.0
    l2_writes: float = 0.0
    l2_misses: float = 0.0
    mc_accesses: float = 0.0
    pcie_transfers: float = 0.0

    # -- DRAM (five power components per the Micron methodology) --------------
    dram_activates: float = 0.0
    dram_precharges: float = 0.0
    dram_reads: float = 0.0           # burst reads
    dram_writes: float = 0.0
    dram_refreshes: float = 0.0

    def scaled(self, factor: float) -> "ActivityReport":
        """Counts scaled by ``factor``; timing left untouched.

        Used when a measured kernel is repeated N times back-to-back:
        activity *rates* stay identical, so the power model can work on
        a single iteration.
        """
        out = ActivityReport()
        for f in fields(self):
            name = f.name
            if name in ("shader_cycles", "runtime_s", "active_cores",
                        "active_clusters"):
                setattr(out, name, getattr(self, name))
            else:
                setattr(out, name, getattr(self, name) * factor)
        return out

    def to_dict(self, sparse: bool = False) -> Dict[str, float]:
        """Plain dict of every counter (stable ordering).

        This is what flows between the performance simulator and the
        power model (the Fig. 1 interface); saving it lets the power
        model be re-run or swept without re-simulating -- the workflow
        GPGPU-Sim + McPAT users know as trace reuse.

        Args:
            sparse: Drop zero counters (compact per-window deltas).
        """
        return scalar_fields_to_dict(self, sparse=sparse)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "ActivityReport":
        """Rebuild a report from :meth:`to_dict` output.

        Missing counters keep their zero defaults (sparse payloads);
        unknown counters raise ``ValueError`` (stale or foreign traces).
        """
        return scalar_fields_from_dict(cls, data, label="activity counters")

    def rate(self, counter: str) -> float:
        """Events per second for ``counter`` over the kernel runtime."""
        if self.runtime_s <= 0:
            return 0.0
        return getattr(self, counter) / self.runtime_s

    def alpha(self, counter: str, clock_hz: float) -> float:
        """Activity factor: events per clock cycle of the given domain."""
        if self.runtime_s <= 0 or clock_hz <= 0:
            return 0.0
        return self.rate(counter) / clock_hz

    def validate(self) -> None:
        """Sanity-check internal consistency; raises AssertionError."""
        assert self.runtime_s >= 0 and self.shader_cycles >= 0
        for f in fields(self):
            value = getattr(self, f.name)
            assert value >= 0, f"negative activity counter {f.name}"
        assert self.l1_misses <= self.l1_reads + self.l1_writes + 1e-9
        assert self.icache_misses <= self.icache_reads + 1e-9
        if self.issued_instructions:
            assert self.threads_launched > 0


def set_cycle_envelope(act: ActivityReport, config: GPUConfig,
                       cycles: float) -> None:
    """Set ``shader_cycles``, ``runtime_s`` and ``dram_refreshes``.

    All three follow from the shader-cycle count; every backend sets
    them here.
    """
    act.shader_cycles = cycles
    act.runtime_s = cycles / config.shader_clock_hz
    act.dram_refreshes = refresh_operations(config, act.runtime_s)


def set_launch_envelope(act: ActivityReport, config: GPUConfig,
                        block_threads: int, n_blocks: int) -> None:
    """Set ``blocks_launched``, ``warps_launched``, ``threads_launched``.

    ``n_blocks`` blocks of ``block_threads`` threads each.
    """
    warps_per_block = -(-block_threads // config.warp_size)
    act.blocks_launched = n_blocks
    act.warps_launched = warps_per_block * n_blocks
    act.threads_launched = block_threads * n_blocks
