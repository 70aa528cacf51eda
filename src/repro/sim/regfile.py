"""Banked register file with operand collectors.

Paper, Section III-C2: "The GPU register file model is based on an NVIDIA
patent and built from multiple single ported RAM banks.  Operands are
collected over multiple cycles to simulate a multi-ported register file.
Different threads will have their registers stored in different banks ...
A crossbar is used to connect the different register banks to a set of
operand collector units which are two-ported four-entry register files."

This class models the activity: a warp-wide operand read touches several
single-ported banks over several cycles; the collected words cross the
crossbar into a collector entry; dispatch reads the collector.
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
        self._banks_for_lanes = tuple(
            max(1, math.ceil(lanes / self.LANES_PER_BANK_ACCESS))
            for lanes in range(config.warp_size + 1))
        # Activity counters.
        self.operand_reads = 0       # warp-wide operand reads
        self.operand_writes = 0      # warp-wide writebacks
        self.bank_accesses = 0       # single-bank port activations
        self.collector_writes = 0    # words parked in collector entries
        self.collector_reads = 0     # collector dispatches
        self.xbar_transfers = 0      # crossbar word groups moved

    def read_operands(self, n_operands: int, active_lanes: int) -> int:
        """Collect ``n_operands`` source operands for a warp instruction.

        Returns the number of collection cycles (operands from different
        banks proceed in parallel; conflicting banks serialise -- we use
        the expected value of a balanced mapping: one group of banks per
        operand round-robins the banks, so collection takes roughly
        ``banks_touched / n_banks`` rounded up, per operand wave).
        """
        if n_operands <= 0:
            return 0
        per_operand = self._banks_for_lanes[active_lanes]
        self.operand_reads += n_operands
        self.bank_accesses += n_operands * per_operand
        self.collector_writes += n_operands
        self.xbar_transfers += n_operands * per_operand
        total_accesses = n_operands * per_operand
        return max(1, math.ceil(total_accesses / self.n_banks))

    def write_result(self, active_lanes: int) -> None:
        """Write back one warp-wide result."""
        per_operand = self._banks_for_lanes[active_lanes]
        self.operand_writes += 1
        self.bank_accesses += per_operand
        self.xbar_transfers += per_operand

    def dispatch(self) -> None:
        """A collector entry dispatches to the execution units."""
        self.collector_reads += 1
