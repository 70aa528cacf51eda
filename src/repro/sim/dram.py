"""GDDR5 graphics DRAM timing model.

The paper models DRAM power as five components following the Micron
methodology -- background, activate, read/write, termination, refresh --
with constants from a GDDR5 datasheet.  The timing side here produces the
command stream counts those components need (activates, precharges, read
and write bursts, refreshes) and contributes realistic latency and
bandwidth contention to the performance simulation.

Organisation: the GPU has ``n_mem_partitions`` independent channels; a
channel owns a set of banks; each bank tracks its open row.  A burst
transfers ``dram_burst_bytes``; the data bus of a channel is a shared
resource (``busy_until``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .config import GPUConfig
from .noc import UTIL_WINDOW


@dataclass
class BankState:
    """Open-row tracking for one DRAM bank."""

    open_row: int = -1
    ready_at: float = 0.0  # earliest time a new column command may start


class DRAMChannel:
    """One memory partition's GDDR5 channel."""

    def __init__(self, config: GPUConfig, channel_id: int,
                 shader_cycles_per_dram_cycle: float) -> None:
        self.config = config
        self.channel_id = channel_id
        self.scale = shader_cycles_per_dram_cycle
        self.banks = [BankState() for _ in range(config.dram_banks)]
        self.bus_free = 0.0
        # Command counters for the power model.
        self.activates = 0
        self.precharges = 0
        self.reads = 0
        self.writes = 0
        self.busy_time = 0.0
        #: Ratio of unseen (cross-shard) traffic to local traffic on a
        #: partitioned simulation; 0.0 (serial) leaves timing exactly
        #: untouched.  Foreign bus load is estimated with zero lag as
        #: ``ratio`` times the locally measured instantaneous bus
        #: utilization (see :class:`repro.sim.noc.NoC`).
        self.background = 0.0

    def set_background(self, ratio: float) -> None:
        """Set the foreign-to-local traffic ratio (0 = serial)."""
        self.background = ratio

    def _burst_cycles(self) -> float:
        """Data-bus occupancy of one burst, in shader cycles.

        GDDR5 transfers 4 bits per command-clock cycle per pin; a burst
        of ``dram_burst_bytes`` over a ``dram_bus_bits_per_partition``
        bus takes burst_bits / (bus_bits * 4) command cycles.
        """
        cfg = self.config
        bits = cfg.dram_burst_bytes * 8
        cycles = bits / (cfg.dram_bus_bits_per_partition * 4)
        return cycles * self.scale

    def access(self, addr_bytes: int, now: float, is_write: bool) -> float:
        """Issue one burst access; returns its completion time.

        ``now`` and the return value are in shader cycles (the global
        simulation clock).
        """
        cfg = self.config
        row = addr_bytes // cfg.dram_row_bytes
        bank = self.banks[row % cfg.dram_banks]
        row_id = row // cfg.dram_banks

        cmd_start = max(now, bank.ready_at)
        if bank.open_row != row_id:
            penalty = cfg.dram_t_rcd
            if bank.open_row >= 0:
                penalty += cfg.dram_t_rp
                self.precharges += 1
            self.activates += 1
            cmd_start += penalty * self.scale
            bank.open_row = row_id
        # Column commands to an open row pipeline at tCCD; the CAS
        # latency is paid once per access but does not serialise the bank.
        bank.ready_at = cmd_start + cfg.dram_t_ccd * self.scale
        data_ready = cmd_start + cfg.dram_t_cas * self.scale
        # The shared data bus serialises bursts.
        burst = self._burst_cycles()
        self.busy_time += burst
        if self.background:
            # Unseen cross-shard traffic, estimated as `background`
            # times the measured local utilization: each local burst
            # drags that many interleaved foreign bursts across the
            # shared bus (occupancy stretch), and its own data lands
            # halfway through the shared slot on average.  Utilization
            # is read off the bus's own busy timeline (how far
            # committed work reaches into the lookback window), so a
            # queued burst registers immediately; ``busy_time`` stays
            # raw so shards exchange real load.
            reach = self.bus_free - (now - UTIL_WINDOW)
            util = min(1.0, max(0.0, reach / UTIL_WINDOW))
            foreign = self.background * util
            data_start = max(data_ready, self.bus_free)
            self.bus_free = data_start + burst * (1.0 + foreign)
            completion = data_start + burst * (1.0 + 0.5 * foreign)
        else:
            data_start = max(data_ready, self.bus_free)
            completion = data_start + burst
            self.bus_free = completion
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return completion


class DRAMSystem:
    """All memory partitions of the GPU."""

    def __init__(self, config: GPUConfig, shader_clock_hz: float) -> None:
        self.config = config
        scale = shader_clock_hz / config.dram_clock_hz
        self.channels: List[DRAMChannel] = [
            DRAMChannel(config, i, scale)
            for i in range(config.n_mem_partitions)
        ]
        self.fixed_latency_shader = (config.dram_latency_ns * 1e-9
                                     * shader_clock_hz)

    def channel_for(self, addr_bytes: int) -> DRAMChannel:
        """Address interleaving across partitions at line granularity."""
        line = addr_bytes // max(self.config.l2_line, 1)
        return self.channels[line % len(self.channels)]

    def access(self, addr_bytes: int, now: float, is_write: bool) -> float:
        """One post-L2 memory transaction; returns completion time."""
        channel = self.channel_for(addr_bytes)
        return channel.access(addr_bytes, now + self.fixed_latency_shader,
                              is_write)

    @property
    def activates(self) -> int:
        return sum(c.activates for c in self.channels)

    @property
    def precharges(self) -> int:
        return sum(c.precharges for c in self.channels)

    @property
    def reads(self) -> int:
        return sum(c.reads for c in self.channels)

    @property
    def writes(self) -> int:
        return sum(c.writes for c in self.channels)


def refresh_operations(config: GPUConfig, runtime_s: float) -> float:
    """All-bank refresh operations across all channels in ``runtime_s``.

    Shared by :func:`repro.sim.activity.set_cycle_envelope` and the
    window reconstruction (:func:`repro.telemetry.sum_windows`): the
    windowed-trace invariant needs them bit-identical.
    """
    per_channel = runtime_s / (config.dram_refresh_interval_us * 1e-6)
    return per_channel * config.n_mem_partitions
