"""Unit and property tests for the circuit tier (CACTI-lite models)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.circuits import (ArrayOrganisation, cam_array, clock_network,
                                  comparator, crossbar, dff_storage, fsm,
                                  instruction_decoder, logic_block,
                                  merge_estimates, priority_encoder,
                                  repeated_wire, rotating_priority_scheduler,
                                  sram_array)
from repro.power.circuits.base import energies_only
from repro.power.tech import tech_node

T40 = tech_node(40)


class TestSRAMArray:
    def make(self, words=256, bits=32, **kw):
        return sram_array("a", ArrayOrganisation(words, bits, **kw), T40)

    def test_positive_outputs(self):
        a = self.make()
        assert a.area > 0 and a.leakage_w > 0
        assert a.energy("read") > 0 and a.energy("write") > 0

    def test_bigger_array_more_area_and_leakage(self):
        small, big = self.make(256), self.make(4096)
        assert big.area > small.area
        assert big.leakage_w > small.leakage_w

    def test_bigger_array_higher_access_energy(self):
        small, big = self.make(64), self.make(8192)
        assert big.energy("read") > small.energy("read")

    def test_extra_ports_cost_area(self):
        single = self.make(rw_ports=1)
        triple = self.make(rw_ports=1, read_ports=2)
        assert triple.area > single.area
        assert triple.leakage_w > single.leakage_w

    def test_banking_reduces_access_energy(self):
        mono = self.make(words=4096)
        banked = self.make(words=4096, banks=8)
        assert banked.energy("read") < mono.energy("read")

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ArrayOrganisation(0, 32)
        with pytest.raises(ValueError):
            ArrayOrganisation(64, 32, rw_ports=0, read_ports=0,
                              write_ports=0)

    @given(words=st.integers(8, 65536), bits=st.integers(8, 512))
    @settings(max_examples=40, deadline=None)
    def test_always_physical(self, words, bits):
        a = sram_array("p", ArrayOrganisation(words, bits), T40)
        assert a.area > 0
        assert 0 < a.energy("read") < 1e-6   # below a microjoule
        assert 0 < a.leakage_w < 10          # below 10 W for any table

    def test_node_scaling_reduces_energy(self):
        org = ArrayOrganisation(1024, 64)
        e40 = sram_array("x", org, tech_node(40)).energy("read")
        e28 = sram_array("x", org, tech_node(28)).energy("read")
        assert e28 < e40


class TestDFFStorage:
    def test_scales_linearly_with_bits(self):
        a, b = dff_storage("a", 100, T40), dff_storage("b", 200, T40)
        assert b.area == pytest.approx(2 * a.area)
        assert b.leakage_w == pytest.approx(2 * a.leakage_w)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            dff_storage("z", 0, T40)

    def test_per_bit_energies_exposed(self):
        d = dff_storage("d", 64, T40)
        assert d.energy("write") == pytest.approx(64 * d.energy("write_bit"))


class TestCAM:
    def test_search_costs_more_than_read(self):
        c = cam_array("c", entries=32, tag_bits=6, payload_bits=64, tech=T40)
        assert c.energy("search") > c.energy("read")

    def test_more_entries_more_search_energy(self):
        a = cam_array("a", 16, 6, 64, T40)
        b = cam_array("b", 128, 6, 64, T40)
        assert b.energy("search") > a.energy("search")

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            cam_array("x", 0, 6, 64, T40)


class TestLogic:
    def test_logic_block_scales(self):
        a = logic_block("a", 100, T40)
        b = logic_block("b", 1000, T40)
        assert b.area == pytest.approx(10 * a.area)

    def test_priority_encoder_grows_superlinear(self):
        e8 = priority_encoder("e8", 8, T40)
        e64 = priority_encoder("e64", 64, T40)
        assert e64.energy("op") > 8 * e8.energy("op") / 2

    def test_scheduler_composition(self):
        s = rotating_priority_scheduler("s", 24, T40)
        e = priority_encoder("e", 24, T40)
        assert s.energy("op") > e.energy("op")  # encoder + rotate + counter
        assert s.area > e.area

    def test_decoder_comparator_fsm_positive(self):
        for circ in (instruction_decoder("d", 8, T40),
                     comparator("c", 32, T40),
                     fsm("f", 8, 12, T40)):
            assert circ.area > 0 and circ.energy("op") > 0

    def test_rejects_nonpositive_gates(self):
        with pytest.raises(ValueError):
            logic_block("x", 0, T40)


class TestWiresXbarClock:
    def test_wire_energy_scales_with_length(self):
        short = repeated_wire("s", 1e-3, 32, T40)
        long = repeated_wire("l", 2e-3, 32, T40)
        assert long.energy("transfer") == pytest.approx(
            2 * short.energy("transfer"))

    def test_wire_rejects_negative(self):
        with pytest.raises(ValueError):
            repeated_wire("x", -1.0, 32, T40)

    def test_xbar_grows_with_ports(self):
        small = crossbar("s", 4, 4, 128, T40)
        big = crossbar("b", 16, 16, 128, T40)
        assert big.area > small.area
        assert big.energy("transfer") > small.energy("transfer")

    def test_xbar_rejects_degenerate(self):
        with pytest.raises(ValueError):
            crossbar("x", 0, 4, 128, T40)

    def test_clock_network_scales_with_area(self):
        small = clock_network("s", 1e-6, 1e4, T40)
        big = clock_network("b", 1e-4, 1e4, T40)
        assert big.energy("cycle") > small.energy("cycle")

    def test_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            clock_network("x", -1.0, 10, T40)


class TestEstimateAlgebra:
    def test_scaled(self):
        a = dff_storage("a", 100, T40)
        s = a.scaled(4)
        assert s.area == pytest.approx(4 * a.area)
        assert s.energy("write") == a.energy("write")  # per-event unchanged

    def test_energies_only(self):
        a = dff_storage("a", 100, T40)
        e = energies_only(a)
        assert e.area == 0 and e.leakage_w == 0
        assert e.energy("write") == a.energy("write")

    def test_merge_adds(self):
        a = dff_storage("a", 100, T40)
        b = dff_storage("b", 50, T40)
        m = merge_estimates("m", [a, b])
        assert m.area == pytest.approx(a.area + b.area)
        assert m.energy("write") == pytest.approx(
            a.energy("write") + b.energy("write"))

    def test_energy_unknown_op_raises(self):
        a = dff_storage("a", 10, T40)
        with pytest.raises(KeyError):
            a.energy("teleport")
