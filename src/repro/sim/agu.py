"""Address generation unit (AGU).

Paper, Section III-C4: "We model the complete AGU as an array of parallel
high-bandwidth sub-AGUs (SAGU), each of which is able to generate 8
memory addresses per cycle."  A warp-wide memory instruction therefore
occupies the AGU for ceil(active_threads / (sub_agus * 8)) cycles and
activates one sub-AGU per 8 addresses.
"""

from __future__ import annotations

from .config import GPUConfig


class AGU:
    """Timing/activity model of the parallel sub-AGU array."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.n_sub_agus = config.n_sub_agus
        self.width = config.sub_agu_width
        self.sub_agu_ops = 0
        self.instructions = 0

    def generate(self, n_addresses: int) -> int:
        """Account for generating ``n_addresses`` addresses.

        Returns the number of AGU cycles the generation occupies.
        """
        if n_addresses <= 0:
            return 0
        self.instructions += 1
        activations = -(-n_addresses // self.width)
        self.sub_agu_ops += activations
        return -(-activations // self.n_sub_agus)
