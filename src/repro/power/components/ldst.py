"""Power model of the load/store unit (Fig. 3 of the paper).

Structures: the parallel sub-AGU array (after Galuzzi et al.'s
high-bandwidth AGU), the coalescer (input queue / pending request table /
output queue / FSM -- built from D flip-flops because "CACTI cannot be
used to model buffers with few but very large entries"), the combined
SMEM/L1 banked physical memory with its address and data crossbars and
bank-conflict checker, and the constant cache.
"""

from __future__ import annotations

import math

from ...sim.activity import ActivityReport
from ...sim.config import GPUConfig
from .. import calibration as cal
from ..circuits.array import ArrayOrganisation, dff_storage, sram_array
from ..circuits.base import energies_only
from ..circuits.logic import fsm, logic_block
from ..circuits.xbar import crossbar
from ..tech import TechNode
from .base import CircuitBackedComponent
from .cachemodel import cache_circuit

#: Gate equivalents of one sub-AGU (8-address wide adder/stride array).
SUB_AGU_GATES = 3200.0

#: Bits per pending-request-table entry: segment address + per-lane byte
#: masks + lane routing for a full warp.
def _prt_entry_bits(warp_size: int, segment_bytes: int) -> int:
    return 40 + warp_size * 8 + segment_bytes


class LDSTPower(CircuitBackedComponent):
    """Whole-GPU load/store unit power (all cores)."""

    def __init__(self, config: GPUConfig, tech: TechNode) -> None:
        warp = config.warp_size
        smem_bytes = config.smem_size + config.l1_size
        bank_bytes = max(4, smem_bytes // config.smem_banks)
        smem_bank = sram_array(
            "smem_bank",
            ArrayOrganisation(words=bank_bytes // 4, bits_per_word=32,
                              rw_ports=1),
            tech,
        )
        prt_bits = (config.coalescer_pending_entries
                    * _prt_entry_bits(warp, config.coalesce_segment_bytes))
        inq_bits = 2 * warp * 40  # two warp-wide address bundles in flight
        circuits = {
            "agu": logic_block("agu", SUB_AGU_GATES * config.n_sub_agus, tech,
                               activity_gates=0.4 * SUB_AGU_GATES),
            "coalescer_prt": dff_storage("coalescer_prt", prt_bits, tech),
            "coalescer_inq": dff_storage("coalescer_inq", inq_bits, tech),
            "coalescer_fsm": fsm("coalescer_fsm", states=8, inputs=12,
                                 tech=tech),
            "smem_banks": smem_bank.scaled(config.smem_banks,
                                           name="smem_banks"),
            "smem_bank_access": energies_only(smem_bank),
            "addr_xbar": crossbar("addr_xbar", inputs=warp,
                                  outputs=config.smem_banks, width_bits=16,
                                  tech=tech),
            "data_xbar": crossbar("data_xbar", inputs=config.smem_banks,
                                  outputs=warp, width_bits=32, tech=tech),
            "conflict_check": logic_block(
                "conflict_check",
                gate_count=warp * math.log2(max(2, config.smem_banks)) * 12,
                tech=tech),
            "const_cache": cache_circuit("const_cache",
                                         config.const_cache_size,
                                         config.const_cache_line,
                                         config.const_cache_assoc, tech),
        }
        if config.tex_cache_size > 0:
            # The texture caching subsystem -- the extension the paper
            # names for a future model variant (Section III-C4).
            circuits["tex_cache"] = cache_circuit(
                "tex_cache", config.tex_cache_size, config.tex_cache_line,
                config.tex_cache_assoc, tech)
        super().__init__("LDSTU", tech, circuits, copies=config.n_cores,
                         leakage_cal=cal.LDST_LEAKAGE, area_cal=cal.AREA)
        self.config = config

    def switching_w(self, act: ActivityReport) -> float:
        c = self.circuits
        # An L1 access is physically a SMEM-structure bank access (the
        # paper folds L1 hits into the integrated memory accesses).
        smem_cal = cal.LDST_SMEM_ENERGY / cal.LDST_ENERGY
        l1_line_words = self.config.l1_line // 4
        smem_equiv = (act.smem_accesses
                      + (act.l1_reads + act.l1_writes) * l1_line_words / 4)
        pairs = [
            (act.agu_ops, c["agu"].energy("op")),
            (act.coalescer_accesses, c["coalescer_inq"].energy("write")),
            (act.coalescer_accesses, c["coalescer_fsm"].energy("op")),
            (act.coalescer_prt_writes,
             c["coalescer_prt"].energy("write_bit")
             * _prt_entry_bits(self.config.warp_size,
                               self.config.coalesce_segment_bytes)),
            (smem_equiv * 0.6, c["smem_bank_access"].energy("read")
             * smem_cal),
            (smem_equiv * 0.4, c["smem_bank_access"].energy("write")
             * smem_cal),
            (act.bank_conflict_checks,
             c["conflict_check"].energy("op") * smem_cal),
            (act.smem_xbar_transfers * 0.5,
             c["addr_xbar"].energy("transfer") * smem_cal),
            (act.smem_xbar_transfers,
             c["data_xbar"].energy("transfer") * smem_cal),
            (act.const_reads, c["const_cache"].energy("read")),
            (act.const_misses, c["const_cache"].energy("write")),
        ]
        if "tex_cache" in c:
            pairs.append((act.tex_accesses, c["tex_cache"].energy("read")))
            pairs.append((act.tex_misses, c["tex_cache"].energy("write")))
        return self.event_power(act, pairs) * cal.LDST_ENERGY

    def peak_dynamic_w(self) -> float:
        """One warp-wide shared-memory access per core per cycle."""
        c = self.circuits
        warp = self.config.warp_size
        per_cycle = (
            self.config.n_sub_agus * c["agu"].energy("op")
            + warp * c["smem_bank_access"].energy("read")
            + c["conflict_check"].energy("op")
            + warp * (c["addr_xbar"].energy("transfer")
                      + c["data_xbar"].energy("transfer"))
        )
        return (per_cycle * self.config.shader_clock_hz * self.copies
                * cal.LDST_ENERGY)
