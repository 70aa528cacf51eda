"""Warp Control Unit: the front-end of a SIMT core (Fig. 2).

The WCU bundles the Warp Status Table, the rotating-priority fetch and
issue schedulers, the instruction cache, the decoder, the instruction
buffer and the scoreboard, and produces their activity counts.

Because the simulated front-end is in-order and a warp's PC can only be
changed by the issue stage, fetch and issue of one instruction are
simulated as one combined event one pipeline beat apart.  Every issued
instruction makes the same structure accesses (two WST reads, for fetch
and issue, one WST update, one fetch, one decode, one instruction-buffer
fill and one tagged search), so one count backs all of them: the
instruction buffer's ``fills``, which :meth:`repro.sim.core.Core._issue`
bumps once per issue.  Only the I-cache, whose hits depend on the
address, is driven per access.
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
        #: Cycles in which the fetch and the issue scheduler each
        #: evaluated their candidates (they always run together).
        self.scheduler_ops = 0

    # Per-structure counts, derived from ``ibuffer.fills`` and
    # ``scheduler_ops``.

    @property
    def issues(self) -> int:
        """Instructions fetched, decoded and issued."""
        return self.ibuffer.fills

    @property
    def wst_reads(self) -> int:
        return 2 * self.issues

    @property
    def wst_writes(self) -> int:
        return self.issues

    @property
    def fetches(self) -> int:
        return self.issues

    @property
    def decodes(self) -> int:
        return self.issues

    @property
    def fetch_scheduler_ops(self) -> int:
        return self.scheduler_ops

    @property
    def issue_scheduler_ops(self) -> int:
        return self.scheduler_ops
