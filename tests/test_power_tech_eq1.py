"""Unit tests for the technology tier and Eq. 1 primitives."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power import eq1
from repro.power.tech import TABULATED_NODES, tech_node


class TestTechNode:
    def test_tabulated_nodes_exact(self):
        for nm in TABULATED_NODES:
            assert tech_node(nm).feature_nm == nm

    def test_vdd_shrinks_with_node(self):
        assert tech_node(90).vdd > tech_node(40).vdd > tech_node(22).vdd

    def test_leakage_density_grows(self):
        assert tech_node(22).i_sub_per_um > tech_node(90).i_sub_per_um

    def test_gate_cap_shrinks(self):
        assert tech_node(22).logic_gate_cap < tech_node(90).logic_gate_cap

    def test_interpolation_between_nodes(self):
        t36 = tech_node(36)
        t40, t32 = tech_node(40), tech_node(32)
        assert t32.vdd < t36.vdd < t40.vdd
        assert t32.logic_gate_area < t36.logic_gate_area < t40.logic_gate_area

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            tech_node(10)
        with pytest.raises(ValueError):
            tech_node(180)

    def test_sram_cell_area_positive(self):
        t = tech_node(40)
        assert t.sram_cell_area > 0
        # 146 F^2 at 40 nm ~= 0.23 um^2
        assert t.sram_cell_area == pytest.approx(146 * (40e-9) ** 2)

    def test_energy_cv2_default_full_swing(self):
        t = tech_node(40)
        assert t.energy_cv2(1e-15) == pytest.approx(1e-15 * t.vdd ** 2)

    def test_energy_cv2_partial_swing(self):
        t = tech_node(40)
        full = t.energy_cv2(1e-15)
        partial = t.energy_cv2(1e-15, voltage_swing=0.1 * t.vdd)
        assert partial == pytest.approx(0.1 * full)

    @given(nm=st.floats(min_value=22, max_value=90))
    @settings(max_examples=40, deadline=None)
    def test_interpolation_monotone_bounds(self, nm):
        t = tech_node(nm)
        lo, hi = tech_node(22), tech_node(90)
        assert min(lo.vdd, hi.vdd) <= t.vdd <= max(lo.vdd, hi.vdd)
        assert t.logic_gate_cap > 0 and t.logic_gate_leak > 0


class TestEq1:
    def test_dynamic_power_formula(self):
        # P = a C V dV f
        p = eq1.dynamic_power(0.5, 1e-12, 1.0, 1.0, 1e9)
        assert p == pytest.approx(0.5e-3)

    def test_switching_energy_default(self):
        assert eq1.switching_energy(1e-15, 1.0) == pytest.approx(1e-15)

    def test_short_circuit_fraction(self):
        assert eq1.short_circuit_power(10.0, 0.1) == 1.0

    def test_leakage_power(self):
        assert eq1.leakage_power(2.0, 1.0) == 2.0

    def test_activity_factor(self):
        assert eq1.activity_factor(500, 1000) == 0.5
        assert eq1.activity_factor(500, 0) == 0.0

    def test_zero_frequency_zero_dynamic(self):
        """The premise of the paper's static-power extrapolation."""
        assert eq1.dynamic_power(1.0, 1e-12, 1.0, 1.0, 0.0) == 0.0
