"""Warp Control Unit: the front-end of a SIMT core (Fig. 2).

The WCU bundles the Warp Status Table, the rotating-priority fetch and
issue schedulers, the instruction cache, the decoder, the instruction
buffer and the scoreboard, and produces their activity counts.

Because the simulated front-end is in-order and a warp's PC can only be
changed by the issue stage, fetch and issue of one instruction are
simulated as one combined event one pipeline beat apart; the activity
accounting (:meth:`repro.sim.core.Core._issue`) still records the
individual structure accesses (WST reads for fetch and issue, I-cache
read, decode, buffer fill + tagged search) exactly as the hardware would
perform them.
"""

from __future__ import annotations

from .cache import SetAssocCache
from .config import GPUConfig
from .ibuffer import InstructionBuffer
from .scoreboard import Scoreboard

#: Bytes one encoded instruction occupies in the I-cache.
INSTRUCTION_BYTES = 8


class WarpControlUnit:
    """Front-end structures and activity accounting for one core."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.ibuffer = InstructionBuffer(config.max_warps_per_core,
                                         config.ibuffer_slots_per_warp)
        self.scoreboard = Scoreboard(config.has_scoreboard,
                                     config.scoreboard_dst_per_warp)
        self.icache = SetAssocCache(config.icache_size, config.icache_line,
                                    config.icache_assoc, name="I$")
        # Warp status table and scheduler activity.
        self.wst_reads = 0
        self.wst_writes = 0
        self.fetch_scheduler_ops = 0
        self.issue_scheduler_ops = 0
        self.fetches = 0
        self.decodes = 0
