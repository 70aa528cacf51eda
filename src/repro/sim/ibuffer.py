"""Instruction buffer of the warp control unit.

Paper, Section III-C1: "Once an instruction has been decoded, the WCU
places the instruction into an instruction buffer slot.  The instruction
resides in its buffer slot until it is ready to execute ...  The
instruction buffer is a cache-like structure that is tagged by the warp
ID and has an associativity greater than one."

This class is the activity/occupancy model of that structure.  The
simulated frontend fetches at most ``slots_per_warp`` instructions ahead
per warp; each fetch writes a slot, each issue performs a warp-ID-tagged
search and frees the slot.  Fetch and issue of one instruction are one
combined event (:meth:`repro.sim.core.Core._issue` counts it once, as
``fills``, and raises on an overflowing fill), so every issued
instruction is one fill and one search, and the front end derives its
own per-issue counts from ``fills`` too
(:class:`~repro.sim.wcu.WarpControlUnit`).
"""

from __future__ import annotations

from typing import Dict


class InstructionBuffer:
    """Warp-ID tagged instruction buffer occupancy model."""

    def __init__(self, n_warps: int, slots_per_warp: int) -> None:
        if slots_per_warp < 1:
            raise ValueError("instruction buffer needs >= 1 slot per warp")
        self.slots_per_warp = slots_per_warp
        self.occupancy: Dict[int, int] = {w: 0 for w in range(n_warps)}
        #: Instructions that passed through a slot: filled at fetch,
        #: found by the tagged search at issue.
        self.fills = 0
        self.flushes = 0

    @property
    def writes(self) -> int:
        return self.fills

    @property
    def searches(self) -> int:
        return self.fills

    def can_fetch(self, warp_id: int) -> bool:
        """Is a slot free for this warp?"""
        return self.occupancy[warp_id] < self.slots_per_warp

    def flush(self, warp_id: int) -> None:
        """Branch resolution discards the warp's buffered instructions."""
        if self.occupancy[warp_id]:
            self.flushes += self.occupancy[warp_id]
            self.occupancy[warp_id] = 0
