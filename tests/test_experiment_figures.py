"""Tests for the ASCII figure rendering and CSV export helpers."""

import csv
import io


from repro.core.validation import KernelValidation
from repro.experiments.figures import (fig4_chart, fig4_csv, fig6_chart,
                                       fig6_csv, hbar, rows_to_csv,
                                       stacked_hbar)


def make_row(kernel="k", sim_total=40.0, meas_total=35.0,
             sim_static=18.0, meas_static=17.5):
    return KernelValidation(
        kernel=kernel,
        simulated_static_w=sim_static,
        simulated_dynamic_w=sim_total - sim_static,
        simulated_total_w=sim_total,
        measured_total_w=meas_total,
        measured_static_w=meas_static,
    )


class TestBars:
    def test_hbar_scales(self):
        assert hbar(5, 10, width=10) == "#####"
        assert hbar(10, 10, width=10) == "#" * 10

    def test_hbar_clamps(self):
        assert hbar(20, 10, width=10) == "#" * 10
        assert hbar(-1, 10, width=10) == ""

    def test_hbar_zero_max(self):
        assert hbar(5, 0) == ""

    def test_stacked_total_length(self):
        bar = stacked_hbar([(5, "#"), (5, "+")], 10, width=10)
        assert bar == "#####+++++"

    def test_stacked_respects_width(self):
        bar = stacked_hbar([(8, "#"), (8, "+")], 10, width=10)
        assert len(bar) == 10


class TestFig6Chart:
    def test_chart_has_two_bars_per_kernel(self):
        rows = [make_row("alpha"), make_row("beta", sim_total=60)]
        chart = fig6_chart(rows)
        assert chart.count("sim  |") == 2
        assert chart.count("meas |") == 2
        assert "alpha" in chart and "beta" in chart

    def test_bigger_power_longer_bar(self):
        rows = [make_row("small", sim_total=20, sim_static=10),
                make_row("large", sim_total=60, sim_static=10)]
        chart = fig6_chart(rows, width=40)
        lines = [l for l in chart.splitlines() if "sim  |" in l]
        small_len = lines[0].count("#") + lines[0].count("+")
        large_len = lines[1].count("#") + lines[1].count("+")
        assert large_len > small_len


class TestFig4Chart:
    def test_monotone_bars(self):
        points = [(b, 20.0 + b) for b in range(1, 13)]
        chart = fig4_chart(points, idle_w=19.5)
        lines = [l for l in chart.splitlines() if "blocks" in l]
        assert len(lines) == 12
        lengths = [l.count("#") for l in lines]
        assert lengths == sorted(lengths)


class TestCSV:
    def test_rows_to_csv_roundtrip(self):
        text = rows_to_csv(["a", "b"], [[1, 2], [3, 4]])
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_fig6_csv_shape(self):
        class FakeResult:
            suites = {"GT240": type("S", (), {
                "kernels": [make_row("k1"), make_row("k2")]})()}
        text = fig6_csv(FakeResult())
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0][0] == "gpu"
        assert len(parsed) == 3

    def test_fig4_csv_shape(self):
        class FakeStair:
            points = [(1, 25.0), (2, 26.0)]
        text = fig4_csv(FakeStair())
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[1] == ["1", "25.0000"]
