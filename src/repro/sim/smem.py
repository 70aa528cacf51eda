"""Shared-memory bank-conflict serialization logic.

Paper, Section III-C4: shared memory and the L1 data cache are one
physical, multi-banked structure; besides the banks it "consists of
interconnects for addresses and data, both modeled as crossbars, and a
bank conflict checking unit".  Accesses by a warp that map to the same
bank but different addresses are serialized into multiple phases; lanes
reading the *same* address in a bank are served by a broadcast.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .config import GPUConfig


class SharedMemory:
    """Bank-conflict model of the SMEM/L1 physical structure."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.n_banks = config.smem_banks
        self.bank_accesses = 0       # physical bank activations
        self.conflict_phases = 0     # extra serialization phases
        self.conflict_checks = 0     # bank-conflict-checker activations
        self.xbar_transfers = 0      # data crossbar word transfers
        self.instructions = 0

    def access(self, word_addresses: Sequence[int]) -> int:
        """Process one warp's shared-memory access.

        Args:
            word_addresses: 32-bit word address per participating lane
                (the load/store unit passes a list).

        Returns:
            Number of serialized phases (1 for conflict-free access).
        """
        if len(word_addresses) == 0:
            return 0
        self.instructions += 1
        self.conflict_checks += 1
        # Distinct addresses only: lanes hitting the same word share a
        # broadcast and cost one bank access together.  Python sets beat
        # np.unique on 32-lane vectors.
        distinct = set(word_addresses)
        n_banks = self.n_banks
        if len(distinct) <= n_banks \
                and max(distinct) - min(distinct) < len(distinct):
            # A contiguous run no wider than the bank count maps every
            # word to its own bank.
            phases = 1
        else:
            per_bank: Dict[int, int] = {}
            for addr in distinct:
                bank = addr % n_banks
                per_bank[bank] = per_bank.get(bank, 0) + 1
            phases = max(per_bank.values())
        self.bank_accesses += len(distinct)
        self.conflict_phases += phases - 1
        self.xbar_transfers += len(word_addresses)
        return phases
