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

from typing import Optional

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
        """
        if self.busy_until > now:
            raise RuntimeError("LDST unit busy")
        self.instructions += 1
        addrs = memory_addresses(inst, ctx, mask)
        agu_cycles = self.agu.generate(len(addrs))

        space = inst.mem_space
        if space == "global":
            completion, occupancy = self._global_access(inst, ctx, mask,
                                                        addrs, now)
        elif space == "shared":
            completion, occupancy = self._shared_access(inst, ctx, mask,
                                                        addrs, smem, now)
        elif space == "const":
            completion, occupancy = self._const_access(inst, ctx, mask,
                                                       addrs, now)
        elif space == "texture":
            completion, occupancy = self._texture_access(inst, ctx, mask,
                                                         addrs, now)
        else:
            raise ValueError(f"unknown memory space {space!r}")

        self.busy_until = now + max(agu_cycles, occupancy, 1)
        return completion

    # -- global memory ------------------------------------------------------

    def _global_access(self, inst, ctx, mask, addrs, now):
        if len(addrs) and (addrs.min() < 0 or addrs.max() >= len(self.gmem)):
            bad = int(addrs.max() if addrs.max() >= len(self.gmem)
                      else addrs.min())
            raise IndexError(
                f"global-memory access out of bounds in {inst!r}: word "
                f"address {bad} outside [0, {len(self.gmem)}) -- check the "
                f"launch's gmem_words"
            )
        byte_addrs = addrs * 4
        transactions = self.coalescer.coalesce(byte_addrs)
        is_write = inst.is_store
        completion = now + 1.0
        for base, size in transactions:
            if self.l1 is not None and not is_write:
                if self.l1.lookup(base, is_write=False):
                    completion = max(completion,
                                     now + self.config.l1_latency_shader_cycles)
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
            self.gmem[addrs] = values
            # Stores retire through a store buffer: the warp does not wait
            # for DRAM, only for the LDSTU handoff.
            completion = now + 4.0
        else:
            assert isinstance(inst.dst, Reg)
            ctx.regs[inst.dst.index][mask] = self.gmem[addrs]
        return completion, len(transactions)

    # -- shared memory ------------------------------------------------------

    def _shared_access(self, inst, ctx, mask, addrs, smem, now):
        if len(addrs) and (addrs.min() < 0 or addrs.max() >= len(smem)):
            raise IndexError(
                f"shared-memory access out of bounds in {inst!r}"
            )
        phases = self.smem_unit.access(addrs)
        if inst.is_store:
            values = ctx.read(inst.srcs[1])[mask]
            smem[addrs] = values
        else:
            assert isinstance(inst.dst, Reg)
            ctx.regs[inst.dst.index][mask] = smem[addrs]
        completion = now + self.config.smem_latency_cycles + max(0, phases - 1)
        return completion, max(1, phases)

    # -- constant memory ------------------------------------------------------

    def _const_access(self, inst, ctx, mask, addrs, now):
        # Paper: "the addresses are checked for equality.  The number of
        # generated constant cache accesses is equal to the number of
        # different addresses in the address bundle."
        distinct = sorted(set(addrs.tolist()))
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
        if len(addrs) and (addrs.min() < 0 or addrs.max() >= len(self.cmem)):
            raise IndexError(f"constant-memory access out of bounds in {inst!r}")
        ctx.regs[inst.dst.index][mask] = self.cmem[addrs]
        return completion, occupancy

    # -- texture memory -------------------------------------------------------

    def _texture_access(self, inst, ctx, mask, addrs, now):
        """Read-only global access through the texture cache hierarchy.

        The paper flags this path as the model's next extension ("In a
        future variant of the model, the LDSTU will contain the texture
        caching subsystem").  Texture fetches bypass the coalescer: the
        texture cache captures 2D locality at line granularity, and only
        missing lines travel to L2/DRAM.
        """
        if self.tex_cache is None:
            raise RuntimeError(
                "texture fetch on a configuration without a texture "
                "cache (set tex_cache_size > 0)"
            )
        line_bytes = self.config.tex_cache_line
        lines = sorted({a * 4 // line_bytes for a in addrs.tolist()})
        self.tex_requests += len(addrs)
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
        ctx.regs[inst.dst.index][mask] = self.gmem[addrs]
        return completion, max(1, len(lines))
