"""bfs -- breadth-first search (Rodinia), two kernels.

One BFS level over a CSR graph.  ``bfs1`` expands the frontier: threads
whose node is in the frontier walk their (variable-length) adjacency
lists and label unvisited neighbours -- heavily divergent control flow
and data-dependent, scattered memory accesses.  ``bfs2`` folds the
"updating" flags into the next frontier and the visited set -- a light,
predicated streaming kernel.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

N_NODES = 1024
BLOCK = 128
MAX_DEGREE = 8

# Global-memory layout (word offsets).
ROW_OFF = 0                       # CSR row offsets [N+1]
EDGE_BASE = N_NODES + 1           # edge array
# remaining arrays laid out after the edges at build time.


def build_bfs1(edge_count: int):
    """Assemble the frontier-expansion kernel plus its array offsets."""
    mask_off = EDGE_BASE + edge_count
    updating_off = mask_off + N_NODES
    visited_off = updating_off + N_NODES
    cost_off = visited_off + N_NODES

    kb = KernelBuilder("bfs1")
    gid, m, start, end, e, nb, vis, cost, one = kb.regs(9)
    p_active = kb.pred()
    p = kb.pred()
    pv = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    kb.ldg(m, gid, offset=mask_off)
    kb.setp("eq", p_active, m, 1)
    kb.bra("done", pred=p_active, sense=False)
    # Clear own frontier bit.
    kb.mov(one, 0)
    kb.stg(one, gid, offset=mask_off)
    kb.ldg(cost, gid, offset=cost_off)
    kb.iadd(cost, cost, 1)
    kb.ldg(start, gid, offset=ROW_OFF)
    kb.ldg(end, gid, offset=ROW_OFF + 1)
    kb.mov(e, start)
    kb.label("edge_loop")
    kb.setp("lt", p, e, end)
    kb.bra("edges_done", pred=p, sense=False)
    kb.ldg(nb, e, offset=EDGE_BASE)
    kb.ldg(vis, nb, offset=visited_off)
    kb.setp("eq", pv, vis, 0)
    # Unvisited neighbour: tentative cost + updating flag.
    kb.stg(cost, nb, offset=cost_off, guard=(pv, True))
    kb.mov(one, 1)
    kb.stg(one, nb, offset=updating_off, guard=(pv, True))
    kb.iadd(e, e, 1)
    kb.jmp("edge_loop")
    kb.label("edges_done")
    kb.label("done")
    kb.exit()
    return kb.build(), mask_off, updating_off, visited_off, cost_off


def build_bfs2(edge_count: int):
    """Assemble the frontier-fold kernel."""
    mask_off = EDGE_BASE + edge_count
    updating_off = mask_off + N_NODES
    visited_off = updating_off + N_NODES

    kb = KernelBuilder("bfs2")
    gid, u, one, zero = kb.regs(4)
    p = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    kb.ldg(u, gid, offset=updating_off)
    kb.setp("eq", p, u, 1)
    kb.mov(one, 1)
    kb.mov(zero, 0)
    kb.stg(one, gid, offset=mask_off, guard=(p, True))
    kb.stg(one, gid, offset=visited_off, guard=(p, True))
    kb.stg(zero, gid, offset=updating_off, guard=(p, True))
    kb.exit()
    return kb.build()


def make_graph() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random CSR graph plus an initial frontier/visited state."""
    r = rng()
    degrees = r.integers(1, MAX_DEGREE + 1, N_NODES)
    row = np.zeros(N_NODES + 1, dtype=np.int64)
    row[1:] = np.cumsum(degrees)
    edges = r.integers(0, N_NODES, row[-1])
    frontier = (r.random(N_NODES) < 0.12).astype(np.float64)
    visited = frontier.copy()
    return row.astype(np.float64), edges.astype(np.float64), frontier, visited


@register(BenchmarkInfo("bfs", 2, "Breadth-first search", "Rodinia"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    row, edges, frontier, visited = make_graph()
    edge_count = len(edges)
    kernel1, mask_off, updating_off, visited_off, cost_off = build_bfs1(
        edge_count)
    kernel2 = build_bfs2(edge_count)
    gmem_words = cost_off + N_NODES
    init = {
        ROW_OFF: row,
        EDGE_BASE: edges,
        mask_off: frontier,
        visited_off: visited,
        cost_off: np.zeros(N_NODES),
    }
    grid = Dim3(N_NODES // BLOCK)
    block = Dim3(BLOCK)
    return [
        KernelLaunch(kernel=kernel1, grid=grid, block=block,
                     globals_init=init, gmem_words=gmem_words,
                     params={"nodes": N_NODES, "edges": edge_count},
                     repeat=100),
        KernelLaunch(kernel=kernel2, grid=grid, block=block,
                     globals_init=init, gmem_words=gmem_words,
                     params={"nodes": N_NODES}, repeat=100),
    ]
