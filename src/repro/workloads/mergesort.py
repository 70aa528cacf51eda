"""mergesort -- parallel merge sort (CUDA SDK), four kernels.

The SDK pipeline sorts tiles in shared memory, then merges them with
rank-based merging:

* ``mergeSort1`` -- bitonic sort of one tile per block in shared memory:
  log^2(TILE) compare-exchange phases with XOR partner addressing and a
  barrier per phase; integer- and shared-memory-heavy.
* ``mergeSort2`` -- sample-rank generation: every SAMPLE_STRIDE-th
  element binary-searches its position in the partner tile; divergent,
  data-dependent global loads.
* ``mergeSort3`` -- merges rank pairs into elementary-interval limits;
  deliberately tiny and in-place, like the 1 ms kernel the paper calls
  out as a measurement artifact (35.4% error on GT240).
* ``mergeSort4`` -- the actual merge: each element of a tile pair binary
  searches the sibling tile and scatters to its final position, yielding
  sorted tiles of twice the size.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

N = 2048
TILE = 128               # elements per block for the shared sort
SAMPLE_STRIDE = 32

KEY_OFF = 0
SORTED_OFF = N           # output of mergeSort1
RANK_OFF = 2 * N         # sample ranks
LIMIT_OFF = RANK_OFF + N // SAMPLE_STRIDE
MERGED_OFF = LIMIT_OFF + N // SAMPLE_STRIDE


def build_shared_sort():
    """Bitonic sort of TILE keys per block in shared memory."""
    kb = KernelBuilder("mergeSort1", smem_words=TILE)
    tid, gid, partner, a, b, dirbit, tmp = kb.regs(7)
    p_swap = kb.pred()
    p_dir = kb.pred()
    p_lower = kb.pred()
    kb.mov(tid, Sreg("tid"))
    kb.mov(gid, Sreg("gtid"))
    kb.ldg(a, gid, offset=KEY_OFF)
    kb.sts(a, tid)
    kb.bar()
    k = 2
    while k <= TILE:
        j = k // 2
        while j >= 1:
            # partner = tid ^ j; active thread is the lower of the pair.
            kb.xor(partner, tid, j)
            kb.setp("gt", p_lower, partner, tid)
            kb.lds(a, tid)
            kb.lds(b, partner)
            # ascending iff (tid & k) == 0
            kb.and_(dirbit, tid, k)
            kb.setp("eq", p_dir, dirbit, 0)
            # swap if (a > b) == ascending
            kb.fmax(tmp, a, b)
            # keep = ascending ? min : max for the lower thread
            kb.fmin(dirbit, a, b)
            kb.selp(tmp, dirbit, tmp, p_dir)
            kb.bar()
            kb.sts(tmp, tid, guard=(p_lower, True))
            # upper thread stores the complementary value
            kb.fmax(tmp, a, b)
            kb.fmin(dirbit, a, b)
            # ascending for the *pair* is decided by the lower index;
            # (partner & k) has the same value as (tid & k) here except
            # for the k bit itself, which XOR with j<k cannot change.
            kb.selp(tmp, tmp, dirbit, p_dir)
            kb.sts(tmp, tid, guard=(p_lower, False))
            kb.bar()
            j //= 2
        k *= 2
    kb.lds(a, tid)
    kb.stg(a, gid, offset=SORTED_OFF)
    kb.exit()
    return kb.build()


def _emit_binary_search(kb, lo, hi, key, base_reg, offset, mid, val, p,
                        label_prefix, strict):
    """Emit a binary search of ``key`` within gmem[base+lo, base+hi).

    Leaves the insertion rank in ``lo``.  ``strict`` picks lower/upper
    bound semantics so equal keys order stably across the two tiles.
    """
    kb.label(f"{label_prefix}_loop")
    kb.setp("lt", p, lo, hi)
    kb.bra(f"{label_prefix}_done", pred=p, sense=False)
    kb.iadd(mid, lo, hi)
    kb.shr(mid, mid, 1)
    kb.iadd(val, base_reg, mid)
    kb.ldg(val, val, offset=offset)
    if strict:
        kb.setp("lt", p, val, key, fp=True)   # lower bound
    else:
        kb.setp("le", p, val, key, fp=True)   # upper bound
    kb.bra(f"{label_prefix}_hi", pred=p, sense=False)
    kb.iadd(lo, mid, 1)
    kb.jmp(f"{label_prefix}_loop")
    kb.label(f"{label_prefix}_hi")
    kb.mov(hi, mid)
    kb.jmp(f"{label_prefix}_loop")
    kb.label(f"{label_prefix}_done")


def build_sample_ranks():
    """Each sample binary-searches the partner tile for its rank."""
    kb = KernelBuilder("mergeSort2")
    gid, seg, own_tile, other_base, key, addr = kb.regs(6)
    lo, hi, mid, val = kb.regs(4)
    p = kb.pred()
    podd = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    # Sample index -> element index and owning tile.
    kb.imul(addr, gid, SAMPLE_STRIDE)
    kb.idiv(own_tile, addr, TILE)
    kb.ldg(key, addr, offset=SORTED_OFF)
    # Partner tile base: tiles pair up (0,1), (2,3), ...
    kb.xor(seg, own_tile, 1)
    kb.imul(other_base, seg, TILE)
    kb.mov(lo, 0)
    kb.mov(hi, TILE)
    kb.and_(val, own_tile, 1)
    kb.setp("eq", podd, val, 0)
    # Even tiles use lower-bound, odd tiles upper-bound for stability;
    # emitted as two search bodies under predicated branches.
    kb.bra("odd_search", pred=podd, sense=False)
    _emit_binary_search(kb, lo, hi, key, other_base, SORTED_OFF,
                        mid, val, p, "even", strict=True)
    kb.jmp("store")
    kb.label("odd_search")
    _emit_binary_search(kb, lo, hi, key, other_base, SORTED_OFF,
                        mid, val, p, "odd", strict=False)
    kb.label("store")
    kb.stg(lo, gid, offset=RANK_OFF)
    kb.exit()
    return kb.build()


def build_merge_ranks():
    """Tiny in-place rank -> interval-limit transformation."""
    kb = KernelBuilder("mergeSort3")
    gid, r, lim = kb.regs(3)
    kb.mov(gid, Sreg("gtid"))
    kb.ldg(r, gid, offset=RANK_OFF)
    # limit = rank + own sample offset within the tile pair
    kb.imod(lim, gid, TILE // SAMPLE_STRIDE)
    kb.imul(lim, lim, SAMPLE_STRIDE)
    kb.iadd(lim, lim, r)
    kb.stg(lim, gid, offset=LIMIT_OFF)
    kb.exit()
    return kb.build()


def build_merge():
    """Merge tile pairs: rank-based scatter to the merged position."""
    kb = KernelBuilder("mergeSort4")
    gid, pair, within, own_tile, other_base, pos = kb.regs(6)
    key, lo, hi, mid, val, addr = kb.regs(6)
    p = kb.pred()
    podd = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    kb.idiv(pair, gid, 2 * TILE)
    kb.imod(within, gid, 2 * TILE)
    kb.idiv(own_tile, within, TILE)       # 0 or 1 within the pair
    kb.ldg(key, gid, offset=SORTED_OFF)
    # Rank within the sibling tile via binary search.
    kb.xor(val, own_tile, 1)
    kb.imul(other_base, pair, 2 * TILE)
    kb.imad(other_base, val, TILE, other_base)
    kb.mov(lo, 0)
    kb.mov(hi, TILE)
    kb.setp("eq", podd, own_tile, 0)
    kb.bra("odd_search", pred=podd, sense=False)
    _emit_binary_search(kb, lo, hi, key, other_base, SORTED_OFF,
                        mid, val, p, "even", strict=True)
    kb.jmp("scatter")
    kb.label("odd_search")
    _emit_binary_search(kb, lo, hi, key, other_base, SORTED_OFF,
                        mid, val, p, "odd", strict=False)
    kb.label("scatter")
    # pos = pair base + index within own tile + rank in sibling tile.
    kb.imod(addr, within, TILE)
    kb.iadd(pos, addr, lo)
    kb.imad(pos, pair, 2 * TILE, pos)
    kb.stg(key, pos, offset=MERGED_OFF)
    kb.exit()
    return kb.build()


def make_inputs() -> np.ndarray:
    """Deterministic random keys."""
    return rng().standard_normal(N)


@register(BenchmarkInfo("mergesort", 4, "Parallel merge sort", "CUDA SDK"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    keys = make_inputs()
    gmem_words = MERGED_OFF + N
    init = {KEY_OFF: keys}
    n_samples = N // SAMPLE_STRIDE
    return [
        KernelLaunch(kernel=build_shared_sort(), grid=Dim3(N // TILE),
                     block=Dim3(TILE), globals_init=init,
                     gmem_words=gmem_words, params={"n": N}, repeat=100),
        KernelLaunch(kernel=build_sample_ranks(),
                     grid=Dim3(max(1, n_samples // 64)), block=Dim3(64),
                     globals_init=init, gmem_words=gmem_words,
                     params={"samples": n_samples}, repeat=100),
        KernelLaunch(kernel=build_merge_ranks(),
                     grid=Dim3(max(1, n_samples // 64)), block=Dim3(64),
                     globals_init=init, gmem_words=gmem_words,
                     params={"samples": n_samples}, repeat=1,
                     repeatable=False),
        KernelLaunch(kernel=build_merge(), grid=Dim3(N // TILE),
                     block=Dim3(TILE), globals_init=init,
                     gmem_words=gmem_words, params={"n": N}, repeat=100),
    ]


def reference_tile_sort(keys: np.ndarray) -> np.ndarray:
    """mergeSort1 output: each TILE-sized tile sorted ascending."""
    out = keys.reshape(-1, TILE).copy()
    out.sort(axis=1)
    return out.ravel()


def reference_merge(sorted_tiles: np.ndarray) -> np.ndarray:
    """mergeSort4 output: tile pairs merged into 2*TILE sorted runs."""
    out = sorted_tiles.reshape(-1, 2 * TILE).copy()
    out.sort(axis=1)
    return out.ravel()
