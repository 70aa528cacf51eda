"""End-to-end tests for dependent kernel chains (the backends'
``simulate_sequence``, which ``SimRequest.execute_chain`` drives)."""

import numpy as np
import pytest

from repro.backends import CYCLE
from repro.core.gpusimpow import BenchmarkResult, GPUSimPow
from repro.isa import Dim3, KernelBuilder, KernelLaunch, Sreg
from repro.sim import gt240
from repro.workloads import bfs, build_benchmark, mergesort
from tests.conftest import build_vecadd_launch


class TestBfsChain:
    @pytest.fixture(scope="class")
    def final_memory(self):
        outs = CYCLE.simulate_sequence(gt240(), build_benchmark("bfs"))
        return outs[-1].gmem

    def test_full_bfs_level(self, final_memory):
        row, edges, frontier, visited = bfs.make_graph()
        ec = len(edges)
        mask_off = bfs.EDGE_BASE + ec
        upd_off = mask_off + bfs.N_NODES
        vis_off = upd_off + bfs.N_NODES
        expected = np.zeros(bfs.N_NODES)
        for n in np.nonzero(frontier)[0]:
            for e in range(int(row[n]), int(row[n + 1])):
                nb = int(edges[e])
                if visited[nb] == 0:
                    expected[nb] = 1
        # bfs2 consumed bfs1's updating flags: new frontier, visited set,
        # updating cleared.
        got_mask = final_memory[mask_off:mask_off + bfs.N_NODES]
        got_upd = final_memory[upd_off:upd_off + bfs.N_NODES]
        got_vis = final_memory[vis_off:vis_off + bfs.N_NODES]
        assert np.array_equal(got_mask, expected)
        assert (got_upd == 0).all()
        assert np.array_equal(got_vis, np.maximum(visited, expected))


class TestMergeSortChain:
    def test_full_pipeline_produces_merged_runs(self):
        """mergeSort1 -> 2 -> 3 -> 4 on one memory image: the final
        merge consumes the tile sort's real output."""
        outs = CYCLE.simulate_sequence(gt240(), build_benchmark("mergesort"))
        final = outs[-1].gmem
        keys = mergesort.make_inputs()
        sorted_tiles = mergesort.reference_tile_sort(keys)
        merged = final[mergesort.MERGED_OFF:mergesort.MERGED_OFF + mergesort.N]
        assert np.array_equal(merged,
                              mergesort.reference_merge(sorted_tiles))

    def test_each_kernel_reports_own_activity(self):
        outs = CYCLE.simulate_sequence(gt240(), build_benchmark("mergesort"))
        issued = [o.activity.issued_instructions for o in outs]
        # Four distinct kernels with very different sizes; the tiny
        # mergeSort3 must not inherit the big sort's counts.
        assert issued[2] < issued[0] / 100


class TestSequenceSemantics:
    def test_empty_sequence(self):
        assert CYCLE.simulate_sequence(gt240(), []) == []

    def test_single_matches_plain_run(self, launches):
        from repro.sim import simulate
        launch = launches["vectorAdd"]
        seq = CYCLE.simulate_sequence(gt240(), [launch])[0]
        solo = simulate(gt240(), launch)
        assert np.array_equal(seq.gmem, solo.gmem)
        assert seq.cycles == solo.cycles


class TestDifferingFootprints:
    """Regression: a later launch with the larger footprint used to run
    against zeros where its own initial data should have been -- only
    the first launch's image was ever applied to the shared memory."""

    N = 64

    def _consumer_launch(self, zvals):
        """out = c * z, where c is the producer's output and z is input
        the *second* launch declares, beyond the producer's footprint."""
        n = self.N
        kb = KernelBuilder("chain_consumer")
        i, c, z, out = kb.regs(4)
        kb.mov(i, Sreg("gtid"))
        kb.ldg(c, i, offset=2 * n)
        kb.ldg(z, i, offset=3 * n)
        kb.fmul(out, c, z)
        kb.stg(out, i, offset=4 * n)
        kb.exit()
        return KernelLaunch(kernel=kb.build(), grid=Dim3(1),
                            block=Dim3(n), globals_init={3 * n: zvals},
                            gmem_words=5 * n)

    def test_later_larger_launch_sees_its_initializer(self):
        n = self.N
        producer, x, y = build_vecadd_launch(n=n, block=n, grid=1)
        zvals = np.random.default_rng(7).standard_normal(n)
        consumer = self._consumer_launch(zvals)
        assert producer.gmem_words < consumer.gmem_words
        outs = CYCLE.simulate_sequence(gt240(), [producer, consumer])
        final = outs[-1].gmem
        np.testing.assert_array_equal(final[4 * n:5 * n], (x + y) * zvals)

    def test_predecessor_output_is_never_clobbered(self):
        """The consumer's image must be applied only beyond the high-water
        mark: the producer's live output region stays untouched even
        though build_global_memory() would zero it."""
        n = self.N
        producer, x, y = build_vecadd_launch(n=n, block=n, grid=1)
        zvals = np.ones(n)
        outs = CYCLE.simulate_sequence(
            gt240(), [producer, self._consumer_launch(zvals)])
        final = outs[-1].gmem
        np.testing.assert_array_equal(final[2 * n:3 * n], x + y)
        np.testing.assert_array_equal(final[:n], x)

    def test_shrinking_footprints_keep_state(self):
        """When the first launch already has the larger footprint, a later
        smaller launch must not re-apply anything."""
        n = self.N
        producer, x, y = build_vecadd_launch(n=n, block=n, grid=1)
        # Same producer twice: the second run adds x + y again from the
        # *original* inputs (its footprint is within the high-water mark,
        # so its initializer is not re-applied and x/y are unchanged).
        outs = CYCLE.simulate_sequence(gt240(), [producer, producer])
        np.testing.assert_array_equal(outs[-1].gmem[2 * n:3 * n], x + y)


class TestBenchmarkResult:
    @pytest.fixture(scope="class")
    def result(self):
        return GPUSimPow(gt240()).run_benchmark("bfs")

    def test_kernels_in_order(self, result):
        assert [k.kernel_name for k in result.kernels] == ["bfs1", "bfs2"]

    def test_aggregates(self, result):
        assert result.total_runtime_s == pytest.approx(
            sum(k.runtime_s for k in result.kernels))
        assert result.total_energy_j > 0
        assert result.average_power_w == pytest.approx(
            result.total_energy_j / result.total_runtime_s)

    def test_benchmark_result_type(self, result):
        assert isinstance(result, BenchmarkResult)
        assert result.benchmark == "bfs"
