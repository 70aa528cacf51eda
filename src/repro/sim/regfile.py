"""Banked register file with operand collectors.

Paper, Section III-C2: "The GPU register file model is based on an NVIDIA
patent and built from multiple single ported RAM banks.  Operands are
collected over multiple cycles to simulate a multi-ported register file.
Different threads will have their registers stored in different banks ...
A crossbar is used to connect the different register banks to a set of
operand collector units which are two-ported four-entry register files."

This class holds that activity: a warp-wide operand read touches several
single-ported banks over several cycles; the collected words cross the
crossbar into a collector entry; dispatch reads the collector.  The
issue slot (:meth:`repro.sim.core.Core._issue`) does the counting.
Every operand read parks in one collector entry and every bank access
moves one word group over the crossbar, so those two counts are derived.
"""

from __future__ import annotations

import math

from .config import GPUConfig


class RegisterFile:
    """Activity model of the banked register file of one core."""

    #: Physical bank port width in 32-bit lanes (128-bit ports).
    LANES_PER_BANK_ACCESS = 4

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.n_banks = config.regfile_banks
        self.n_collectors = config.operand_collectors
        #: Bank port activations per warp operand, by active lane count.
        self.banks_for_lanes = tuple(
            max(1, math.ceil(lanes / self.LANES_PER_BANK_ACCESS))
            for lanes in range(config.warp_size + 1))
        # Activity counters.
        self.operand_reads = 0       # warp-wide operand reads
        self.operand_writes = 0      # warp-wide writebacks
        self.bank_accesses = 0       # single-bank port activations
        self.collector_reads = 0     # collector dispatches

    @property
    def collector_writes(self) -> int:
        """Operands parked in collector entries."""
        return self.operand_reads

    @property
    def xbar_transfers(self) -> int:
        """Crossbar word groups moved."""
        return self.bank_accesses
