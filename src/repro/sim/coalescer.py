"""Global-memory access coalescing logic.

Paper, Section III-C4: "The coalescing system is modeled after a
corresponding NVIDIA patent and consists of an input queue, output queue,
pending request table, and a finite state machine.  The goal of
coalescing is to service the addresses requested by the memory access in
as few memory requests as possible."

The algorithm is segment-based (Fermi/GT200 compute capability >= 1.2
behaviour): the addresses of a warp's lanes are mapped to aligned
segments of ``coalesce_segment_bytes``; one memory transaction is emitted
per distinct segment touched.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .config import GPUConfig


class Coalescer:
    """Activity-counting segment coalescer."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.segment_bytes = config.coalesce_segment_bytes
        self.accesses = 0          # warp accesses processed
        self.prt_writes = 0        # pending-request-table allocations
        self.transactions = 0      # memory transactions emitted
        self.addresses = 0         # lane addresses examined

    def coalesce(self, words: Sequence[int]) -> List[Tuple[int, int]]:
        """Coalesce one warp's lane addresses.

        Args:
            words: 32-bit word address per participating lane (the
                load/store unit passes a list).

        Returns:
            List of ``(segment_base_byte_address, size_bytes)``
            transactions, one per distinct segment.
        """
        if len(words) == 0:
            return []
        self.accesses += 1
        self.addresses += len(words)
        if not self.config.coalescing_enabled:
            # Ablation mode: every distinct address becomes its own
            # 32-byte transaction (pre-coalescing GPU behaviour).
            size = 32
        else:
            size = self.segment_bytes
        # Distinct segments in ascending order (np.unique's order; a
        # set is cheaper on 32-lane vectors).  Segment sizes are whole
        # words, so dividing word addresses by the words per segment
        # gives each lane's segment without a byte address.
        per_segment = size // 4
        segments = sorted({a // per_segment for a in words})
        n = len(segments)
        self.prt_writes += n
        self.transactions += n
        return [(segment * size, size) for segment in segments]

    def efficiency(self) -> float:
        """Average addresses served per transaction (higher is better)."""
        if self.transactions == 0:
            return 0.0
        return self.addresses / self.transactions
