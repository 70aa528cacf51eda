"""The load/store unit (LDSTU) of one core.

Paper, Fig. 3: a memory access instruction passes through the address
generation unit, then -- depending on the address space -- through the
constant-address equality check, the access coalescing logic, or the
bank-conflict serialization logic, into the top-tier memories (L1/SMEM,
constant cache) and onward to L2/DRAM.

This class owns the per-core memory-path structures (AGU, coalescer,
bank-conflict unit, L1 data cache, constant cache) and performs both the
functional access (values) and the timing accounting.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..isa.instructions import Instruction, Reg
from .agu import AGU
from .cache import SetAssocCache
from .coalescer import Coalescer
from .config import GPUConfig
from .functional import WarpContext, memory_addresses
from .memsys import MemorySystem
from .smem import SharedMemory


class LoadStoreUnit:
    """Per-core LDST pipeline: functional + timing model."""

    def __init__(self, config: GPUConfig, memsys: MemorySystem,
                 gmem: np.ndarray, cmem: Optional[np.ndarray]) -> None:
        self.config = config
        self.memsys = memsys
        self.gmem = gmem
        self.cmem = cmem if cmem is not None else np.zeros(1, dtype=np.float64)
        self.agu = AGU(config)
        self.coalescer = Coalescer(config)
        self.smem_unit = SharedMemory(config)
        self.l1: Optional[SetAssocCache] = None
        if config.l1_size > 0:
            self.l1 = SetAssocCache(config.l1_size, config.l1_line,
                                    config.l1_assoc, name="L1D")
        self.const_cache = SetAssocCache(config.const_cache_size,
                                         config.const_cache_line,
                                         config.const_cache_assoc,
                                         name="constL1")
        self.tex_cache: Optional[SetAssocCache] = None
        if config.tex_cache_size > 0:
            self.tex_cache = SetAssocCache(config.tex_cache_size,
                                           config.tex_cache_line,
                                           config.tex_cache_assoc,
                                           name="texL1")
        #: A new memory instruction may enter once ``busy_until <= now``.
        self.busy_until = 0.0
        self.instructions = 0
        self.const_requests = 0
        self.const_misses = 0
        self.tex_requests = 0
        self.tex_accesses = 0
        self.tex_misses = 0

    def execute(self, inst: Instruction, ctx: WarpContext,
                mask: np.ndarray, smem: np.ndarray, now: float) -> float:
        """Functionally and temporally execute one memory instruction.

        Returns the completion time at which the destination register (if
        any) is written back and the warp's dependence clears.

        Raises:
            IndexError: if a lane's word address lies outside the
                space's memory; raised before any cache or memory-system
                accounting.
        """
        if self.busy_until > now:
            raise RuntimeError("LDST unit busy")
        addrs = memory_addresses(inst, ctx, mask)
        # One Python list feeds the bounds check and the bank-conflict,
        # coalescing and cache-line models (sets and per-address
        # lookups want scalars).
        words = addrs.tolist()
        memory = self.memory_for(inst.mem_space, smem)
        if words and (min(words) < 0 or max(words) >= len(memory)):
            raise _out_of_bounds(inst, inst.mem_space, words, len(memory))
        completion, busy = self.access(inst, ctx, mask, addrs, words,
                                       memory, now)
        self.busy_until = now + busy
        return completion

    def memory_for(self, space: str, smem: np.ndarray) -> np.ndarray:
        """The word array a ``space`` access reads and writes."""
        if space == "global":
            return self.gmem
        if space == "shared":
            return smem
        if space == "const":
            return self.cmem
        if space == "texture":
            if self.tex_cache is None:
                raise RuntimeError(
                    "texture fetch on a configuration without a texture "
                    "cache (set tex_cache_size > 0)"
                )
            return self.gmem
        raise ValueError(f"unknown memory space {space!r}")

    def access(self, inst: Instruction, ctx: WarpContext,
               mask: np.ndarray, addrs, words: List[int],
               memory: np.ndarray, now: float) -> Tuple[float, int]:
        """Count and perform one in-bounds access of ``memory``.

        ``addrs`` indexes ``memory`` for the values; ``words`` (the same
        word addresses as a list) drives the AGU, bank-conflict,
        coalescing and cache models.  Returns ``(completion,
        busy_cycles)``: when the destination register is written back,
        and how long the unit stays occupied.  The cycle engine comes
        here through :meth:`execute`; the analytical estimator calls it
        directly, with its own out-of-range rule.
        """
        self.instructions += 1
        agu_cycles = self.agu.generate(len(words))
        completion, occupancy = _ACCESS_BY_SPACE[inst.mem_space](
            self, inst, ctx, mask, addrs, words, memory, now)
        return completion, max(agu_cycles, occupancy, 1)

    # -- global memory ------------------------------------------------------

    def _global_access(self, inst, ctx, mask, addrs, words, memory, now):
        transactions = self.coalescer.coalesce(words)
        is_write = inst.is_store
        completion = now + 1.0
        l1_hit = now + self.config.l1_latency_shader_cycles
        for base, size in transactions:
            if self.l1 is not None and not is_write:
                if self.l1.lookup(base, is_write=False):
                    completion = max(completion, l1_hit)
                    continue
            elif self.l1 is not None and is_write:
                # Write-through, no-write-allocate L1.
                self.l1.lookup(base, is_write=True, allocate=False)
            completion = max(
                completion,
                self.memsys.transaction(base, size, now, is_write),
            )
        # Functional access.
        if inst.is_store:
            values = ctx.read(inst.srcs[1])[mask]
            memory[addrs] = values
            # Stores retire through a store buffer: the warp does not wait
            # for DRAM, only for the LDSTU handoff.
            completion = now + 4.0
        else:
            assert isinstance(inst.dst, Reg)
            ctx.regs[inst.dst.index][mask] = memory[addrs]
        return completion, len(transactions)

    # -- shared memory ------------------------------------------------------

    def _shared_access(self, inst, ctx, mask, addrs, words, memory, now):
        phases = self.smem_unit.access(words)
        if inst.is_store:
            values = ctx.read(inst.srcs[1])[mask]
            memory[addrs] = values
        else:
            assert isinstance(inst.dst, Reg)
            ctx.regs[inst.dst.index][mask] = memory[addrs]
        completion = now + self.config.smem_latency_cycles + max(0, phases - 1)
        return completion, max(1, phases)

    # -- constant memory ------------------------------------------------------

    def _const_access(self, inst, ctx, mask, addrs, words, memory, now):
        # Paper: "the addresses are checked for equality.  The number of
        # generated constant cache accesses is equal to the number of
        # different addresses in the address bundle."
        distinct = sorted(set(words))
        self.const_requests += len(distinct)
        completion = now + self.config.l1_latency_shader_cycles
        occupancy = max(1, len(distinct))
        for addr in distinct:
            base = addr * 4
            if not self.const_cache.lookup(base, is_write=False):
                self.const_misses += 1
                completion = max(
                    completion,
                    self.memsys.transaction(base, self.config.const_cache_line,
                                            now, False),
                )
        assert isinstance(inst.dst, Reg)
        ctx.regs[inst.dst.index][mask] = memory[addrs]
        return completion, occupancy

    # -- texture memory -------------------------------------------------------

    def _texture_access(self, inst, ctx, mask, addrs, words, memory, now):
        """Read-only global access through the texture cache hierarchy.

        The paper flags this path as the model's next extension ("In a
        future variant of the model, the LDSTU will contain the texture
        caching subsystem").  Texture fetches bypass the coalescer: the
        texture cache captures 2D locality at line granularity, and only
        missing lines travel to L2/DRAM.
        """
        assert self.tex_cache is not None
        line_bytes = self.config.tex_cache_line
        lines = sorted({a * 4 // line_bytes for a in words})
        self.tex_requests += len(words)
        self.tex_accesses += len(lines)
        completion = now + self.config.l1_latency_shader_cycles
        for line in lines:
            base = line * line_bytes
            if not self.tex_cache.lookup(base, is_write=False):
                self.tex_misses += 1
                completion = max(
                    completion,
                    self.memsys.transaction(base, self.config.tex_cache_line,
                                            now, False),
                )
        assert isinstance(inst.dst, Reg)
        ctx.regs[inst.dst.index][mask] = memory[addrs]
        return completion, max(1, len(lines))


#: Each space's access body (unbound: an instance-held table of bound
#: methods would be a reference cycle, freeing the unit's caches only
#: on a garbage-collector pass).
_ACCESS_BY_SPACE = {"global": LoadStoreUnit._global_access,
                    "shared": LoadStoreUnit._shared_access,
                    "const": LoadStoreUnit._const_access,
                    "texture": LoadStoreUnit._texture_access}

#: How an out-of-bounds message names each memory space.
_SPACE_NAMES = {"global": "global", "shared": "shared", "const": "constant",
                "texture": "texture"}


def _out_of_bounds(inst: Instruction, space: str, words: List[int],
                   size: int) -> IndexError:
    """The fault of an access with a word address outside ``[0, size)``."""
    high = max(words)
    bad = high if high >= size else min(words)
    hint = (" -- check the launch's gmem_words"
            if space in ("global", "texture") else "")
    return IndexError(
        f"{_SPACE_NAMES[space]}-memory access out of bounds in {inst!r}: "
        f"word address {bad} outside [0, {size}){hint}"
    )
