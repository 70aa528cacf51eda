"""Scoreboard for register dependence tracking.

Paper, Section III-C1: "For resolving register dependencies, GPUs (e.g.
NVIDIA Fermi) use simple approaches based on scoreboarding.  In our
models, a scoreboard is a cache-like table tagged by the warp ID" with a
bounded number of destination registers per warp (Fig. 2 shows
DstReg1/DstReg2).

The per-warp pending-write sets live on the :class:`~repro.sim.warp.Warp`
objects; this class centralises the policy (hazard test, capacity limit)
and the activity counting for the power model's CAM structure.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .warp import Warp


class Scoreboard:
    """Warp-ID-tagged dependence table."""

    def __init__(self, enabled: bool, dst_per_warp: int) -> None:
        self.enabled = enabled
        self.dst_per_warp = dst_per_warp
        self.searches = 0
        self.writes = 0

    def blocks(self, warp: Warp, reads: Sequence[int],
               write: Optional[int], search: bool = True) -> bool:
        """Does the scoreboard hold back ``warp``'s next instruction?

        It does when the warp has no free destination slot.  Otherwise,
        if ``search`` (every non-control instruction), one tagged search
        -- counted for the power model -- tests the instruction's
        registers for RAW/WAW hazards against the pending writes.
        Without a scoreboard this is never called (the warp blocks on
        any outstanding instruction instead).
        """
        pending = warp.pending_writes
        if len(pending) >= self.dst_per_warp:
            return True
        if not search:
            return False
        self.searches += 1
        if not pending:
            return False
        if write is not None and write in pending:
            return True
        for reg in reads:
            if reg in pending:
                return True
        return False

    def reserve(self, warp: Warp, reg: Optional[int]) -> None:
        """Record an in-flight destination register."""
        if reg is not None:
            self.writes += 1
        warp.reserve(reg)

    def release(self, warp: Warp, reg: Optional[int]) -> None:
        """Writeback: clear the pending entry."""
        if reg is not None:
            self.writes += 1
        warp.release(reg)
