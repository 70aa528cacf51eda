"""Power model of the banked register file with operand collectors.

Per the NVIDIA patent the paper cites (Section III-C2): single-ported
SRAM banks, a crossbar from banks to collectors, and operand collector
units that are "two-ported four-entry register files".
"""

from __future__ import annotations

from ...sim.activity import ActivityReport
from ...sim.config import GPUConfig
from .. import calibration as cal
from ..circuits.array import ArrayOrganisation, sram_array
from ..circuits.base import energies_only
from ..circuits.xbar import crossbar
from ..tech import TechNode
from .base import CircuitBackedComponent

#: Physical bank port width in bits (four 32-bit lanes per access).
BANK_PORT_BITS = 128


class RegisterFilePower(CircuitBackedComponent):
    """Whole-GPU register-file power (all cores)."""

    def __init__(self, config: GPUConfig, tech: TechNode) -> None:
        regs_bytes = config.regfile_regs_per_core * 4
        words_per_bank = max(
            1, regs_bytes * 8 // (BANK_PORT_BITS * config.regfile_banks))
        bank = sram_array(
            "rf_bank",
            ArrayOrganisation(words=words_per_bank,
                              bits_per_word=BANK_PORT_BITS, rw_ports=1),
            tech,
        )
        collectors = sram_array(
            "collectors",
            ArrayOrganisation(words=4, bits_per_word=BANK_PORT_BITS,
                              read_ports=1, write_ports=1, rw_ports=0),
            tech,
        ).scaled(config.operand_collectors, name="collectors")
        xbar = crossbar("rf_xbar", inputs=config.regfile_banks,
                        outputs=config.operand_collectors,
                        width_bits=BANK_PORT_BITS, tech=tech)
        circuits = {
            "banks": bank.scaled(config.regfile_banks, name="rf_banks"),
            # Per-access energy views; static side counted above.
            "bank_access": energies_only(bank),
            "collectors": collectors,
            "collector_access": energies_only(collectors),
            "xbar": xbar,
        }
        super().__init__("Register File", tech, circuits,
                         copies=config.n_cores,
                         leakage_cal=cal.RF_LEAKAGE, area_cal=cal.AREA)
        self.config = config

    def switching_w(self, act: ActivityReport) -> float:
        c = self.circuits
        bank_r = c["bank_access"].energy("read")
        bank_w = c["bank_access"].energy("write")
        coll_r = c["collector_access"].energy("read")
        coll_w = c["collector_access"].energy("write")
        xfer = c["xbar"].energy("transfer")
        # Reads and writes split the bank traffic in proportion to the
        # warp-operand counts.
        ops = act.rf_reads + act.rf_writes
        read_frac = act.rf_reads / ops if ops else 0.0
        pairs = [
            (act.rf_bank_accesses * read_frac, bank_r),
            (act.rf_bank_accesses * (1.0 - read_frac), bank_w),
            (act.collector_writes, coll_w),
            (act.collector_reads, coll_r),
            (act.rf_xbar_transfers, xfer),
        ]
        return self.event_power(act, pairs) * cal.RF_ENERGY

    def peak_dynamic_w(self) -> float:
        """All banks and the crossbar active every shader cycle."""
        c = self.circuits
        per_cycle = (
            self.config.regfile_banks * c["bank_access"].energy("read")
            + self.config.regfile_banks * c["xbar"].energy("transfer")
            + self.config.operand_collectors
            * c["collector_access"].energy("write")
        )
        return (per_cycle * self.config.shader_clock_hz * self.copies
                * cal.RF_ENERGY)
