"""Scoreboard for register dependence tracking.

Paper, Section III-C1: "For resolving register dependencies, GPUs (e.g.
NVIDIA Fermi) use simple approaches based on scoreboarding.  In our
models, a scoreboard is a cache-like table tagged by the warp ID" with a
bounded number of destination registers per warp (Fig. 2 shows
DstReg1/DstReg2).

The per-warp pending-write sets live on the :class:`~repro.sim.warp.Warp`
objects; this class holds the policy (capacity limit) and the activity
counts of the power model's CAM structure.  The issue slot
(:meth:`repro.sim.core.Core._try_issue_one`) runs the hazard test: a
warp with no free destination slot is held back; otherwise every
non-control instruction costs one tagged search of its registers for
RAW/WAW hazards against the pending writes.  Without a scoreboard the
warp blocks on any outstanding instruction instead.
"""

from __future__ import annotations


class Scoreboard:
    """Warp-ID-tagged dependence table (policy and activity counts)."""

    def __init__(self, enabled: bool, dst_per_warp: int) -> None:
        self.enabled = enabled
        self.dst_per_warp = dst_per_warp
        self.searches = 0
        self.writes = 0
