"""Unit tests for the shared uncore memory system."""


from repro.sim.config import gt240, gtx580
from repro.sim.memsys import MemorySystem


class TestWithoutL2:
    def test_gt240_has_no_l2(self):
        ms = MemorySystem(gt240())
        assert ms.l2_banks is None
        assert ms.l2_reads == 0

    def test_transaction_reaches_dram(self):
        ms = MemorySystem(gt240())
        done = ms.transaction(0, 128, now=0.0, is_write=False)
        assert done > 0
        assert ms.dram.reads > 0
        assert ms.mc_accesses == 1

    def test_write_transaction(self):
        ms = MemorySystem(gt240())
        ms.transaction(0, 128, 0.0, is_write=True)
        assert ms.dram.writes > 0

    def test_large_transaction_multiple_bursts(self):
        cfg = gt240()
        ms = MemorySystem(cfg)
        ms.transaction(0, 128, 0.0, False)
        expected = 128 // cfg.dram_burst_bytes
        assert ms.dram.reads == expected

    def test_noc_flits_counted(self):
        ms = MemorySystem(gt240())
        ms.transaction(0, 128, 0.0, False)
        assert ms.noc.flits > 0


class TestWithL2:
    def test_gtx580_l2_banks_per_partition(self):
        cfg = gtx580()
        ms = MemorySystem(cfg)
        assert len(ms.l2_banks) == cfg.n_mem_partitions

    def test_l2_hit_avoids_dram(self):
        ms = MemorySystem(gtx580())
        ms.transaction(0, 128, 0.0, False)      # miss, fills L2
        reads_after_miss = ms.dram.reads
        t_hit = ms.transaction(0, 128, 1000.0, False)
        assert ms.dram.reads == reads_after_miss
        assert ms.l2_misses == 1

    def test_l2_hit_faster_than_miss(self):
        ms = MemorySystem(gtx580())
        t_miss = ms.transaction(0, 128, 0.0, False) - 0.0
        t_hit = ms.transaction(0, 128, 10000.0, False) - 10000.0
        assert t_hit < t_miss

    def test_addresses_spread_partitions(self):
        cfg = gtx580()
        ms = MemorySystem(cfg)
        for i in range(cfg.n_mem_partitions):
            ms.transaction(i * cfg.l2_line, 128, 0.0, False)
        touched = sum(1 for bank in ms.l2_banks if bank.accesses > 0)
        assert touched == cfg.n_mem_partitions

    def test_write_no_allocate(self):
        ms = MemorySystem(gtx580())
        ms.transaction(0, 128, 0.0, True)
        # Write missed and did not allocate: a later read misses again.
        ms.transaction(0, 128, 1000.0, False)
        assert ms.l2_misses == 2


class TestContention:
    def test_latency_grows_under_load(self):
        ms = MemorySystem(gt240())
        first = ms.transaction(0, 128, 0.0, False) - 0.0
        latencies = []
        for i in range(1, 64):
            done = ms.transaction(i * 4096, 128, 0.0, False)
            latencies.append(done)
        assert latencies[-1] > first
