"""Shared uncore memory system: NoC -> L2 -> GDDR5.

One instance is shared by all cores of the simulated GPU.  Cores hand it
post-coalescing memory transactions with absolute timestamps (in shader
cycles) and get completion times back; all contention (NoC ports, L2
banks, DRAM banks and buses) is resolved against the shared state.

On the GT240 configuration there is no L2 (Table II), so transactions go
NoC -> memory controller -> DRAM directly.
"""

from __future__ import annotations

from typing import List, Optional

from .cache import SetAssocCache
from .config import GPUConfig
from .dram import DRAMSystem
from .noc import NoC


class MemorySystem:
    """The GPU's uncore: interconnect, shared L2, memory controllers."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        shader_hz = config.shader_clock_hz
        self.noc = NoC(config, shader_hz)
        self.dram = DRAMSystem(config, shader_hz)
        self.l2_banks: Optional[List[SetAssocCache]] = None
        if config.has_l2:
            per_bank = config.l2_size // config.n_mem_partitions
            self.l2_banks = [
                SetAssocCache(per_bank, config.l2_line, config.l2_assoc,
                              name=f"L2[{i}]")
                for i in range(config.n_mem_partitions)
            ]
        self.mc_accesses = 0
        self._l2_latency_shader = (config.l2_latency_uncore_cycles
                                   * config.shader_to_uncore)
        #: Line addresses allocated into the L2 since the last drain
        #: (shard coordination: see :meth:`drain_l2_fills`).
        self._l2_fills: List[int] = []

    def transaction(self, addr_bytes: int, size_bytes: int, now: float,
                    is_write: bool) -> float:
        """One memory transaction from a core; returns completion time.

        The request crosses the NoC to its home partition, probes the L2
        bank there (if any), and on a miss performs a DRAM burst per
        ``dram_burst_bytes`` chunk of the transaction.
        """
        config = self.config
        partition = (addr_bytes // config.l2_line) % config.n_mem_partitions
        request_bytes = size_bytes if is_write else 8
        arrival = self.noc.send(partition, request_bytes, now)

        if self.l2_banks is not None:
            bank = self.l2_banks[partition]
            hit = bank.lookup(addr_bytes, is_write=is_write,
                              allocate=not is_write)
            if not hit and not is_write:
                self._l2_fills.append(addr_bytes)
            service_done = arrival + self._l2_latency_shader
            if not hit:
                service_done = self._dram_fill(addr_bytes, size_bytes,
                                               service_done, is_write)
        else:
            self.mc_accesses += 1
            service_done = self._dram_fill(addr_bytes, size_bytes,
                                           arrival, is_write)

        # Response crosses the NoC back (loads carry data back).
        response_bytes = size_bytes if not is_write else 8
        noc = self.noc
        return service_done + noc.flits_for(response_bytes) * noc.scale

    def _dram_fill(self, addr_bytes: int, size_bytes: int, now: float,
                   is_write: bool) -> float:
        if self.l2_banks is not None:
            self.mc_accesses += 1
        burst = self.config.dram_burst_bytes
        completion = now
        offset = 0
        while offset < size_bytes:
            completion = max(
                completion,
                self.dram.access(addr_bytes + offset, now, is_write),
            )
            offset += burst
        return completion

    # -- shard coordination ---------------------------------------------------

    def set_background(self, ratio: float) -> None:
        """Model foreign shared-resource load from other shards.

        ``ratio`` is the estimated foreign-to-local traffic ratio: the
        NoC links and DRAM buses model the other shards' load as
        ``ratio`` times their own instantaneously measured utilization
        (zero-lag symmetry estimate, corrected by the coordinator at
        epoch barriers).  ``0`` restores exact serial timing.
        """
        self.noc.set_background(ratio)
        for channel in self.dram.channels:
            channel.set_background(ratio)

    def drain_l2_fills(self) -> List[int]:
        """Return and clear the L2 line fills since the last drain.

        Shards report these at epoch barriers; the coordinator fans each
        shard's fills out to the others (:meth:`install_l2_lines`) so
        the logically-shared L2 keeps serving cross-shard hits with at
        most one epoch of lag.
        """
        fills, self._l2_fills = self._l2_fills, []
        return fills

    def install_l2_lines(self, addrs: List[int]) -> None:
        """Warm the L2 with lines other shards filled (no counting)."""
        if self.l2_banks is None:
            return
        line = self.config.l2_line
        n = self.config.n_mem_partitions
        for addr in addrs:
            self.l2_banks[(addr // line) % n].install(addr)

    @property
    def uncore_busy(self) -> float:
        """Raw (uninflated) shader-cycles of uncore bandwidth consumed:
        NoC link occupancy plus DRAM data-bus occupancy.  Shards
        exchange deltas of this at epoch barriers to estimate each
        other's background load."""
        return (self.noc.flits * self.noc.scale
                + sum(ch.busy_time for ch in self.dram.channels))

    # -- aggregate statistics -------------------------------------------------

    @property
    def l2_reads(self) -> int:
        return sum(b.reads for b in self.l2_banks) if self.l2_banks else 0

    @property
    def l2_writes(self) -> int:
        return sum(b.writes for b in self.l2_banks) if self.l2_banks else 0

    @property
    def l2_misses(self) -> int:
        return sum(b.misses for b in self.l2_banks) if self.l2_banks else 0
