"""Power model of the Warp Control Unit (Fig. 2 of the paper).

Structures modeled, following Section III-C1:

* Warp Status Table -- multi-ported RAM, one entry per in-flight warp;
* fetch scheduler -- rotating-priority (inverters + wide priority
  encoder + phase counter, after Kun et al.);
* I-cache and McPAT-style instruction decoder;
* instruction buffer -- warp-ID-tagged cache-like structure (CAM);
* scoreboard -- warp-ID-tagged table of destination registers (CAM),
  present only on scoreboarded architectures (Table II);
* per-warp reconvergence stacks -- token RAM (exec PC, reconvergence PC,
  active mask per token);
* issue scheduler -- second rotating-priority encoder.
"""

from __future__ import annotations

import math

from ...sim.activity import ActivityReport
from ...sim.config import GPUConfig
from .. import calibration as cal
from ..circuits.array import ArrayOrganisation, sram_array
from ..circuits.cam import cam_array
from ..circuits.logic import instruction_decoder, rotating_priority_scheduler
from ..tech import TechNode
from .base import CircuitBackedComponent
from .cachemodel import cache_circuit

#: Reconvergence stack depth provisioned per warp (tokens).
STACK_ENTRIES_PER_WARP = 16

#: Bits per stack token: execution PC (32) + reconvergence PC (32) +
#: active mask (warp size).
def _token_bits(warp_size: int) -> int:
    return 64 + warp_size


#: Bits per WST entry: master PC (32) + priority + valid/ready/barrier
#: flags + block binding.
WST_ENTRY_BITS = 48

#: Decoded instruction bits held per instruction-buffer slot.
IBUFFER_PAYLOAD_BITS = 72


class WCUPower(CircuitBackedComponent):
    """Whole-GPU warp-control-unit power (all cores)."""

    def __init__(self, config: GPUConfig, tech: TechNode) -> None:
        warps = config.max_warps_per_core
        tag_bits = max(1, math.ceil(math.log2(max(2, warps))))
        circuits = {
            "wst": sram_array(
                "wst",
                ArrayOrganisation(words=warps, bits_per_word=WST_ENTRY_BITS,
                                  read_ports=2, write_ports=1, rw_ports=0),
                tech,
            ),
            "fetch_sched": rotating_priority_scheduler("fetch_sched",
                                                       warps, tech),
            "issue_sched": rotating_priority_scheduler("issue_sched",
                                                       warps, tech),
            "icache": cache_circuit("icache", config.icache_size,
                                    config.icache_line, config.icache_assoc,
                                    tech),
            "decoder": instruction_decoder("decoder", opcode_bits=8,
                                           tech=tech),
            "ibuffer": cam_array("ibuffer",
                                 entries=warps * config.ibuffer_slots_per_warp,
                                 tag_bits=tag_bits,
                                 payload_bits=IBUFFER_PAYLOAD_BITS,
                                 tech=tech),
            "stacks": sram_array(
                "stacks",
                ArrayOrganisation(words=warps * STACK_ENTRIES_PER_WARP,
                                  bits_per_word=_token_bits(config.warp_size)),
                tech,
            ),
        }
        if config.has_scoreboard:
            circuits["scoreboard"] = cam_array(
                "scoreboard", entries=warps, tag_bits=tag_bits,
                payload_bits=config.scoreboard_dst_per_warp * 9, tech=tech,
            )
        super().__init__("WCU", tech, circuits, copies=config.n_cores,
                         leakage_cal=cal.WCU_LEAKAGE, area_cal=cal.AREA)
        self.config = config

    def switching_w(self, act: ActivityReport) -> float:
        c = self.circuits
        pairs = [
            (act.wst_reads, c["wst"].energy("read")),
            (act.wst_writes, c["wst"].energy("write")),
            (act.fetch_scheduler_ops, c["fetch_sched"].energy("op")),
            (act.issue_scheduler_ops, c["issue_sched"].energy("op")),
            (act.icache_reads, c["icache"].energy("read")),
            (act.icache_misses, c["icache"].energy("write")),
            (act.decodes, c["decoder"].energy("op")),
            (act.ibuffer_writes, c["ibuffer"].energy("write")),
            (act.ibuffer_searches, c["ibuffer"].energy("search")),
            (act.stack_pushes, c["stacks"].energy("write")),
            (act.stack_pops, c["stacks"].energy("read")),
            (act.stack_reads, c["stacks"].energy("read")),
        ]
        if "scoreboard" in c:
            scoreboard = c["scoreboard"]
            pairs.append((act.scoreboard_searches,
                          scoreboard.energy("search")))
            pairs.append((act.scoreboard_writes, scoreboard.energy("write")))
        return self.event_power(act, pairs) * cal.WCU_ENERGY

    def peak_dynamic_w(self) -> float:
        """One fetch + one issue per core per shader cycle, all
        structures touched."""
        c = self.circuits
        per_issue = (
            2 * c["wst"].energy("read") + c["wst"].energy("write")
            + c["fetch_sched"].energy("op") + c["issue_sched"].energy("op")
            + c["icache"].energy("read") + c["decoder"].energy("op")
            + c["ibuffer"].energy("write") + c["ibuffer"].energy("search")
            + c["stacks"].energy("read")
        )
        if "scoreboard" in c:
            per_issue += (c["scoreboard"].energy("search")
                          + c["scoreboard"].energy("write"))
        rate = self.config.shader_clock_hz * self.config.issue_width
        return per_issue * rate * self.copies * cal.WCU_ENERGY
