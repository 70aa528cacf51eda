"""Functional-correctness tests for all Table I workloads.

Every kernel is executed on the cycle-level simulator and its output
compared against an independent numpy reference -- the strongest
evidence that the performance substrate executes real programs, not
traces.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.sim import gt240, gtx580, simulate
from repro.workloads import (all_kernel_launches, benchmark_info,
                             benchmark_names, build_benchmark)
from repro.workloads import (backprop, bfs, blackscholes, heartwall, hotspot,
                             kmeans, matmul, mergesort, needle, pathfinder,
                             scalarprod, vectoradd)

CFG = gt240()


class TestRegistry:
    def test_twelve_benchmarks(self):
        assert len(benchmark_names()) == 12

    def test_nineteen_kernels(self, launches):
        assert len(launches) == 19

    def test_fig6_kernel_names(self, launches):
        expected = {
            "backprop1", "backprop2", "bfs1", "bfs2", "BlackScholes",
            "heartwall", "hotspot", "kmeans1", "kmeans2", "matrixMul",
            "mergeSort1", "mergeSort2", "mergeSort3", "mergeSort4",
            "needle1", "needle2", "pathfinder", "scalarProd", "vectorAdd",
        }
        assert set(launches) == expected

    def test_table1_kernel_counts(self):
        counts = {"backprop": 2, "heartwall": 1, "kmeans": 2,
                  "pathfinder": 1, "bfs": 2, "hotspot": 1, "matmul": 1,
                  "blackscholes": 1, "mergesort": 4, "scalarprod": 1,
                  "vectoradd": 1, "needle": 2}
        for name, n in counts.items():
            assert benchmark_info(name).n_kernels == n
            assert len(build_benchmark(name)) == n

    def test_origins_match_table1(self):
        rodinia = {"backprop", "heartwall", "kmeans", "pathfinder", "bfs",
                   "hotspot", "needle"}
        sdk = {"matmul", "blackscholes", "mergesort", "scalarprod",
               "vectoradd"}
        for name in rodinia:
            assert benchmark_info(name).origin == "Rodinia"
        for name in sdk:
            assert benchmark_info(name).origin == "CUDA SDK"

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            build_benchmark("quake3")

    def test_builds_are_deterministic(self):
        a = build_benchmark("vectoradd")[0]
        b = build_benchmark("vectoradd")[0]
        assert np.array_equal(a.globals_init[0], b.globals_init[0])


class TestSharedLaunches:
    """Each benchmark is built once per process and shared read-only."""

    def test_shared_arrays_refuse_writes(self):
        consts = 0
        for launch in all_kernel_launches().values():
            arrays = list(launch.globals_init.values())
            if launch.const_init is not None:
                arrays.append(launch.const_init)
                consts += 1
            assert arrays
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        assert consts  # BlackScholes and kmeans2 preload constants

    def test_dict_is_new_per_call(self):
        first = all_kernel_launches()
        assert first is not all_kernel_launches()
        del first["vectorAdd"]
        assert "vectorAdd" in all_kernel_launches()

    def test_launch_objects_are_shared(self):
        first, second = all_kernel_launches(), all_kernel_launches()
        assert all(first[label] is second[label] for label in first)
        chain = build_benchmark("mergesort")
        assert chain is not build_benchmark("mergesort")
        assert [l.kernel.name for l in chain] \
            == [l.kernel.name for l in build_benchmark("mergesort")]
        assert all(first[l.kernel.name] is l for l in chain)

    def test_each_benchmark_built_once(self, monkeypatch):
        from repro.workloads import common
        calls = []
        builder = common._REGISTRY["vectoradd"]

        def counting():
            calls.append(1)
            return builder()

        monkeypatch.setitem(common._REGISTRY, "vectoradd", counting)
        monkeypatch.setattr(common, "_BUILT", {})
        all_kernel_launches()
        all_kernel_launches()
        build_benchmark("vectoradd")
        assert len(calls) == 1

    def test_concurrent_resolution_shares_one_launch(self, monkeypatch):
        """Threads racing a cold build all get the first stored launch."""
        import time
        from concurrent.futures import ThreadPoolExecutor
        from repro.workloads import common
        builder = common._REGISTRY["bfs"]

        def slow():
            time.sleep(0.05)  # every thread enters the cold build
            return builder()

        monkeypatch.setitem(common._REGISTRY, "bfs", slow)
        monkeypatch.setattr(common, "_BUILT", {})
        with ThreadPoolExecutor(8) as pool:
            found = list(pool.map(lambda _: build_benchmark("bfs")[0],
                                  range(8), timeout=60))
        assert all(launch is found[0] for launch in found)

    def test_label_resolves_to_shared_launch(self):
        from repro import SimRequest
        request = SimRequest(config=CFG, kernel="bfs2")
        assert request.resolve_launch() is all_kernel_launches()["bfs2"]


class TestVectorAdd:
    def test_functional(self, launches):
        l = launches["vectorAdd"]
        out = simulate(CFG, l)
        ref = vectoradd.reference(l.globals_init[vectoradd.A_OFF],
                                  l.globals_init[vectoradd.B_OFF])
        got = out.gmem[vectoradd.C_OFF:vectoradd.C_OFF + vectoradd.N]
        assert np.allclose(got, ref)


class TestScalarProd:
    def test_partials(self, launches):
        l = launches["scalarProd"]
        out = simulate(CFG, l)
        ref = scalarprod.reference(l.globals_init[scalarprod.A_OFF],
                                   l.globals_init[scalarprod.B_OFF])
        got = out.gmem[scalarprod.OUT_OFF:scalarprod.OUT_OFF + scalarprod.GRID]
        assert np.allclose(got, ref)


class TestBlackScholes:
    def test_prices(self, launches):
        l = launches["BlackScholes"]
        out = simulate(CFG, l)
        s = l.globals_init[blackscholes.S_OFF]
        x = l.globals_init[blackscholes.X_OFF]
        t = l.globals_init[blackscholes.T_OFF]
        call, put = blackscholes.reference(s, x, t)
        n = blackscholes.N
        assert np.allclose(out.gmem[blackscholes.CALL_OFF:
                                    blackscholes.CALL_OFF + n], call,
                           rtol=1e-6)
        assert np.allclose(out.gmem[blackscholes.PUT_OFF:
                                    blackscholes.PUT_OFF + n], put,
                           rtol=1e-6)

    def test_sfu_heavy(self, blackscholes_activity):
        act = blackscholes_activity
        assert act.sfu_ops > 0.1 * act.fp_ops


class TestMatMul:
    def test_product(self, launches):
        l = launches["matrixMul"]
        out = simulate(CFG, l)
        ref = matmul.reference(l.globals_init[matmul.A_OFF],
                               l.globals_init[matmul.B_OFF])
        got = out.gmem[matmul.C_OFF:matmul.C_OFF + matmul.DIM ** 2]
        assert np.allclose(got, ref)

    def test_uses_shared_memory(self, launches):
        out = simulate(CFG, launches["matrixMul"])
        assert out.activity.smem_accesses > 0
        assert out.activity.barriers > 0


class TestHotspot:
    def test_stencil(self, launches):
        l = launches["hotspot"]
        out = simulate(CFG, l)
        ref = hotspot.reference(l.globals_init[hotspot.TEMP_OFF],
                                l.globals_init[hotspot.POWER_OFF])
        got = out.gmem[hotspot.OUT_OFF:hotspot.OUT_OFF + hotspot.DIM ** 2]
        assert np.allclose(got, ref)


class TestPathfinder:
    def test_dp_rows(self, launches):
        l = launches["pathfinder"]
        out = simulate(CFG, l)
        ref = pathfinder.reference(l.globals_init[pathfinder.WALL_OFF],
                                   l.globals_init[pathfinder.SRC_OFF])
        got = out.gmem[pathfinder.OUT_OFF:pathfinder.OUT_OFF + pathfinder.COLS]
        assert np.allclose(got, ref)


class TestKmeans:
    def test_transpose(self, launches):
        out = simulate(CFG, launches["kmeans1"])
        feats, _ = kmeans.make_inputs()
        ref = feats.reshape(kmeans.N_POINTS, kmeans.N_FEATURES).T.ravel()
        got = out.gmem[kmeans.FEAT_T_OFF:
                       kmeans.FEAT_T_OFF + kmeans.N_POINTS * kmeans.N_FEATURES]
        assert np.array_equal(got, ref)

    def test_membership(self, launches):
        out = simulate(CFG, launches["kmeans2"])
        feats, cents = kmeans.make_inputs()
        ref = kmeans.reference_membership(feats, cents)
        got = out.gmem[kmeans.MEMBER_OFF:kmeans.MEMBER_OFF + kmeans.N_POINTS]
        assert np.array_equal(got, ref)

    def test_kmeans2_uses_constant_cache(self, launches):
        out = simulate(CFG, launches["kmeans2"])
        assert out.activity.const_reads > 0


class TestBackprop:
    def test_layerforward(self, launches):
        out = simulate(CFG, launches["backprop1"])
        x, w, _, _ = backprop.make_inputs()
        ref = backprop.reference_partials(x, w)
        off = backprop.PARTIAL_OFF
        got = out.gmem[off:off + backprop.GRID * backprop.N_HIDDEN]
        assert np.allclose(got, ref)

    def test_adjust_weights(self, launches):
        out = simulate(CFG, launches["backprop2"])
        x, w, delta, oldw = backprop.make_inputs()
        wref, owref = backprop.reference_weights(x, w, delta, oldw)
        nw = backprop.N_INPUT * backprop.N_HIDDEN
        assert np.allclose(out.gmem[backprop.W_OFF:backprop.W_OFF + nw], wref)
        assert np.allclose(out.gmem[backprop.OLDW_OFF:
                                    backprop.OLDW_OFF + nw], owref)


class TestHeartwall:
    def test_ncc_scores(self, launches):
        out = simulate(CFG, launches["heartwall"])
        wins, tpl = heartwall.make_inputs()
        ref = heartwall.reference(wins, tpl)
        got = out.gmem[heartwall.OUT_OFF:
                       heartwall.OUT_OFF + heartwall.N_POINTS]
        assert np.allclose(got, ref, rtol=1e-5)


class TestMergeSort:
    def test_tile_sort(self, launches):
        out = simulate(CFG, launches["mergeSort1"])
        keys = mergesort.make_inputs()
        ref = mergesort.reference_tile_sort(keys)
        got = out.gmem[mergesort.SORTED_OFF:mergesort.SORTED_OFF + mergesort.N]
        assert np.array_equal(got, ref)

    def test_merge_produces_sorted_pairs(self):
        launches = {l.kernel.name: l for l in build_benchmark("mergesort")}
        keys = mergesort.make_inputs()
        sorted_tiles = mergesort.reference_tile_sort(keys)
        shared = launches["mergeSort4"]
        l4 = replace(shared, globals_init={**shared.globals_init,
                                           mergesort.SORTED_OFF: sorted_tiles})
        out = simulate(CFG, l4)
        got = out.gmem[mergesort.MERGED_OFF:mergesort.MERGED_OFF + mergesort.N]
        assert np.array_equal(got, mergesort.reference_merge(sorted_tiles))

    def test_ranks_within_bounds(self, launches):
        out = simulate(CFG, launches["mergeSort2"])
        n_samples = mergesort.N // mergesort.SAMPLE_STRIDE
        ranks = out.gmem[mergesort.RANK_OFF:mergesort.RANK_OFF + n_samples]
        assert (ranks >= 0).all() and (ranks <= mergesort.TILE).all()

    def test_mergesort3_not_repeatable(self, launches):
        """The paper's measurement-artifact kernel is marked in-place."""
        assert not launches["mergeSort3"].repeatable
        assert launches["mergeSort1"].repeatable

    def test_divergent(self, launches):
        out = simulate(CFG, launches["mergeSort2"])
        assert out.activity.divergent_branches > 0


class TestNeedle:
    def test_both_diagonal_kernels(self, launches):
        ref_full = needle.reference_dp(needle.make_inputs())
        for name in ("needle1", "needle2"):
            out = simulate(CFG, launches[name])
            got = out.gmem[:needle.DIM ** 2]
            assert np.allclose(got, ref_full), name

    def test_heavily_divergent(self, launches):
        out = simulate(CFG, launches["needle1"])
        act = out.activity
        assert act.divergent_branches > act.blocks_launched


class TestBfs:
    def test_frontier_expansion(self, launches):
        row, edges, frontier, visited = bfs.make_graph()
        out = simulate(CFG, launches["bfs1"])
        ec = len(edges)
        upd_off = bfs.EDGE_BASE + ec + bfs.N_NODES
        got = out.gmem[upd_off:upd_off + bfs.N_NODES]
        expected = np.zeros(bfs.N_NODES)
        for n in np.nonzero(frontier)[0]:
            for e in range(int(row[n]), int(row[n + 1])):
                nb = int(edges[e])
                if visited[nb] == 0:
                    expected[nb] = 1
        assert np.array_equal(got, expected)

    def test_frontier_cleared(self, launches):
        out = simulate(CFG, launches["bfs1"])
        _, edges, _, _ = bfs.make_graph()
        mask_off = bfs.EDGE_BASE + len(edges)
        assert (out.gmem[mask_off:mask_off + bfs.N_NODES] == 0).all()

    def test_bfs2_builds_next_frontier(self, launches):
        out = simulate(CFG, launches["bfs1"])
        _, edges, _, _ = bfs.make_graph()
        ec = len(edges)
        mask_off = bfs.EDGE_BASE + ec
        upd_off = mask_off + bfs.N_NODES
        vis_off = upd_off + bfs.N_NODES
        upd = out.gmem[upd_off:upd_off + bfs.N_NODES].copy()
        l2 = launches["bfs2"]
        init = dict(l2.globals_init)
        init[upd_off] = upd
        init[mask_off] = np.zeros(bfs.N_NODES)
        out2 = simulate(CFG, replace(l2, globals_init=init))
        got_mask = out2.gmem[mask_off:mask_off + bfs.N_NODES]
        assert np.array_equal(got_mask, upd)
        assert (out2.gmem[upd_off:upd_off + bfs.N_NODES] == 0).all()


class TestCrossGPU:
    @pytest.mark.parametrize("name", ["vectorAdd", "matrixMul", "hotspot"])
    def test_same_results_on_gtx580(self, launches, name):
        a = simulate(gt240(), launches[name])
        b = simulate(gtx580(), launches[name])
        assert np.allclose(a.gmem, b.gmem)
