"""Warp state: registers, divergence stack, and scheduling status."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..isa.kernel import Kernel
from .functional import WarpContext
from .stack import ReconvergenceStack


class Warp:
    """One in-flight warp on a core.

    Scheduling status is a small set of flags the Warp Status Table
    tracks (Fig. 2: Valid? / Rdy? / Barrier columns): ``done``,
    ``at_barrier`` and ``blocked_until``.  Which warps may issue is the
    core's decision (:class:`~repro.sim.core.Core` keeps the ready set).
    """

    __slots__ = (
        "warp_id", "block_slot", "block_id", "kernel", "ctx", "stack",
        "at_barrier", "done", "pending_writes", "blocked_until",
        "outstanding_memory", "sb_held",
    )

    def __init__(self, warp_id: int, block_slot: int, block_id: int,
                 kernel: Kernel, specials: Dict[str, np.ndarray],
                 warp_size: int, initial_mask=None) -> None:
        self.warp_id = warp_id
        self.block_slot = block_slot
        self.block_id = block_id
        self.kernel = kernel
        self.ctx = WarpContext(kernel.n_regs, kernel.n_preds, specials,
                               warp_size)
        self.stack = ReconvergenceStack(warp_size, initial_mask)
        self.at_barrier = False
        self.done = False
        #: registers with in-flight writes (scoreboard image).
        self.pending_writes: Dict[int, int] = {}
        #: barrel-processing block: warp may not issue before this time.
        self.blocked_until: float = 0.0
        self.outstanding_memory = 0
        #: Set while the scoreboard holds the warp back: the searches
        #: each further test counts (1 for a hazard, 0 for a full
        #: table).  Only a change to ``pending_writes`` can free it, so
        #: :meth:`reserve` and :meth:`release` reset it to None.
        self.sb_held: Optional[int] = None

    @property
    def pc(self) -> int:
        return self.stack.current()[0]

    @property
    def active_mask(self) -> np.ndarray:
        return self.stack.current()[1]

    def reserve(self, reg: Optional[int]) -> None:
        """Mark ``reg`` as having an in-flight write."""
        if reg is not None:
            self.pending_writes[reg] = self.pending_writes.get(reg, 0) + 1
            self.sb_held = None

    def release(self, reg: Optional[int]) -> None:
        """Clear one in-flight write of ``reg`` (writeback)."""
        if reg is None:
            return
        self.sb_held = None
        count = self.pending_writes.get(reg, 0)
        if count <= 1:
            self.pending_writes.pop(reg, None)
        else:
            self.pending_writes[reg] = count - 1
