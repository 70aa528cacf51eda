"""kmeans -- k-means clustering (Rodinia), two kernels.

``kmeans1`` (invert_mapping in Rodinia): transposes the feature matrix
from point-major to feature-major layout -- pure strided memory movement
that defeats coalescing on one side, a classic memory-path stressor.

``kmeans2`` (kmeansPoint): each thread assigns one point to its nearest
of K centroids: a loop over centroids and features accumulating squared
distances (FFMA), with the centroids broadcast from constant memory and
a running arg-min tracked with predicates.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa.instructions import Sreg
from ..isa.kernel import KernelBuilder
from ..isa.launch import Dim3, KernelLaunch
from .common import BenchmarkInfo, register, rng

N_POINTS = 1024
N_FEATURES = 8
N_CLUSTERS = 5
BLOCK = 128

FEAT_OFF = 0                                  # point-major [N][F]
FEAT_T_OFF = N_POINTS * N_FEATURES            # feature-major [F][N]
MEMBER_OFF = 2 * N_POINTS * N_FEATURES        # membership [N]


def build_invert_mapping():
    """Assemble kmeans1: the strided feature-matrix transpose."""
    kb = KernelBuilder("kmeans1")
    gid, f, src, dst, v = kb.regs(5)
    p = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    kb.mov(f, 0)
    kb.label("feat_loop")
    # src = gid*F + f (coalesced across f, strided across threads)
    kb.imad(src, gid, N_FEATURES, f)
    kb.ldg(v, src, offset=FEAT_OFF)
    # dst = f*N + gid (coalesced across threads)
    kb.imad(dst, f, N_POINTS, gid)
    kb.stg(v, dst, offset=FEAT_T_OFF)
    kb.iadd(f, f, 1)
    kb.setp("lt", p, f, N_FEATURES)
    kb.bra("feat_loop", pred=p)
    kb.exit()
    return kb.build()


def build_kmeans_point():
    """Assemble kmeans2: nearest-centroid assignment per point."""
    kb = KernelBuilder("kmeans2")
    gid, c, f, addr, x, cen, diff, dist = kb.regs(8)
    best_d, best_i, czero = kb.regs(3)
    p = kb.pred()
    pbest = kb.pred()
    kb.mov(gid, Sreg("gtid"))
    kb.mov(czero, 0)
    kb.mov(best_d, 1e30)
    kb.mov(best_i, 0)
    kb.mov(c, 0)
    kb.label("cluster_loop")
    kb.mov(dist, 0.0)
    kb.mov(f, 0)
    kb.label("feat_loop")
    # x = features_T[f*N + gid]; cen = const[c*F + f]
    kb.imad(addr, f, N_POINTS, gid)
    kb.ldg(x, addr, offset=FEAT_T_OFF)
    kb.imad(addr, c, N_FEATURES, f)
    kb.ldc(cen, addr)
    kb.fsub(diff, x, cen)
    kb.ffma(dist, diff, diff, dist)
    kb.iadd(f, f, 1)
    kb.setp("lt", p, f, N_FEATURES)
    kb.bra("feat_loop", pred=p)
    # arg-min tracking.
    kb.setp("lt", pbest, dist, best_d, fp=True)
    kb.selp(best_d, dist, best_d, pbest)
    kb.i2f(diff, c)
    kb.selp(best_i, diff, best_i, pbest)
    kb.iadd(c, c, 1)
    kb.setp("lt", p, c, N_CLUSTERS)
    kb.bra("cluster_loop", pred=p)
    kb.stg(best_i, gid, offset=MEMBER_OFF)
    kb.exit()
    return kb.build()


def make_inputs():
    """Deterministic feature and centroid arrays."""
    r = rng()
    features = r.standard_normal(N_POINTS * N_FEATURES)
    centroids = r.standard_normal(N_CLUSTERS * N_FEATURES)
    return features, centroids


@register(BenchmarkInfo("kmeans", 2, "k-means clustering", "Rodinia"))
def build() -> List[KernelLaunch]:
    """Build this benchmark's kernel launches (Table I entry)."""
    features, centroids = make_inputs()
    gmem_words = MEMBER_OFF + N_POINTS
    grid = Dim3(N_POINTS // BLOCK)
    block = Dim3(BLOCK)
    transposed = features.reshape(N_POINTS, N_FEATURES).T.ravel()
    return [
        KernelLaunch(
            kernel=build_invert_mapping(),
            grid=grid, block=block,
            globals_init={FEAT_OFF: features},
            gmem_words=gmem_words,
            params={"n": N_POINTS, "features": N_FEATURES},
            repeat=100,
        ),
        KernelLaunch(
            kernel=build_kmeans_point(),
            grid=grid, block=block,
            globals_init={FEAT_T_OFF: transposed},
            const_init=centroids,
            gmem_words=gmem_words,
            params={"n": N_POINTS, "clusters": N_CLUSTERS},
            repeat=100,
        ),
    ]


def reference_membership(features: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid assignment for every point."""
    pts = features.reshape(N_POINTS, N_FEATURES)
    cen = centroids.reshape(N_CLUSTERS, N_FEATURES)
    d = ((pts[:, None, :] - cen[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1).astype(np.float64)
