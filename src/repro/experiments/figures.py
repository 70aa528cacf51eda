"""Terminal rendering and CSV export for the paper's figures.

The evaluation figures are bar charts (Fig. 6) and a staircase waveform
(Fig. 4); these helpers render them as ASCII so ``python -m
repro.experiments`` reproduces the *figures*, not just their underlying
numbers, and export CSV for external plotting.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence, Tuple

#: Glyphs for the stacked Fig. 6 bars.
SIM_STATIC, SIM_DYNAMIC = "#", "+"
MEAS_STATIC, MEAS_DYNAMIC = "=", "-"


def hbar(value: float, vmax: float, width: int = 50, char: str = "#") -> str:
    """A horizontal bar of ``value`` scaled against ``vmax``."""
    if vmax <= 0:
        return ""
    n = max(0, min(width, round(value / vmax * width)))
    return char * n


def stacked_hbar(parts: Sequence[Tuple[float, str]], vmax: float,
                 width: int = 50) -> str:
    """A stacked horizontal bar; each part is (value, glyph)."""
    if vmax <= 0:
        return ""
    out = []
    total_cells = 0
    acc = 0.0
    for value, glyph in parts:
        acc += value
        cells = round(acc / vmax * width) - total_cells
        out.append(glyph * max(0, cells))
        total_cells += max(0, cells)
    return "".join(out)[:width]


def fig6_chart(rows: Iterable, width: int = 44) -> str:
    """Render one Fig. 6 panel from KernelValidation rows.

    Two bars per kernel -- simulated (static ``#`` + dynamic ``+``) and
    measured (static ``=`` + dynamic ``-``) -- mirroring the paper's
    stacked-bar layout.
    """
    rows = list(rows)
    vmax = max(max(r.simulated_total_w, r.measured_total_w) for r in rows)
    lines = [f"  scale: full bar = {vmax:.0f} W   "
             f"sim: {SIM_STATIC}=static {SIM_DYNAMIC}=dynamic   "
             f"meas: {MEAS_STATIC}=static {MEAS_DYNAMIC}=dynamic"]
    for r in rows:
        sim_dyn = r.simulated_total_w - r.simulated_static_w
        meas_dyn = max(0.0, r.measured_total_w - r.measured_static_w)
        sim_bar = stacked_hbar([(r.simulated_static_w, SIM_STATIC),
                                (sim_dyn, SIM_DYNAMIC)], vmax, width)
        meas_bar = stacked_hbar([(r.measured_static_w, MEAS_STATIC),
                                 (meas_dyn, MEAS_DYNAMIC)], vmax, width)
        lines.append(f"  {r.kernel:<13s} sim  |{sim_bar:<{width}s}| "
                     f"{r.simulated_total_w:6.1f} W")
        lines.append(f"  {'':<13s} meas |{meas_bar:<{width}s}| "
                     f"{r.measured_total_w:6.1f} W")
    return "\n".join(lines)


def fig4_chart(points: Sequence[Tuple[int, float]], idle_w: float,
               width: int = 50) -> str:
    """Render the Fig. 4 staircase: one bar per block-count plateau."""
    vmax = max(p for _, p in points)
    lines = [f"  scale: full bar = {vmax:.0f} W (idle {idle_w:.1f} W)"]
    for blocks, power in points:
        bar = hbar(power, vmax, width)
        lines.append(f"  {blocks:2d} blocks |{bar:<{width}s}| {power:5.1f} W")
    return "\n".join(lines)


def rows_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Serialise rows to CSV text (for external plotting tools)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def fig6_csv(result) -> str:
    """CSV of a Fig6Result: one row per (gpu, kernel)."""
    rows = []
    for gpu, suite in result.suites.items():
        for k in suite.kernels:
            rows.append([
                gpu, k.kernel,
                f"{k.simulated_static_w:.3f}",
                f"{k.simulated_total_w - k.simulated_static_w:.3f}",
                f"{k.measured_static_w:.3f}",
                f"{max(0.0, k.measured_total_w - k.measured_static_w):.3f}",
                f"{k.relative_error:.4f}",
            ])
    return rows_to_csv(
        ["gpu", "kernel", "sim_static_w", "sim_dynamic_w",
         "meas_static_w", "meas_dynamic_w", "relative_error"],
        rows,
    )


def fig4_csv(result) -> str:
    """CSV of a StaircaseResult: blocks vs measured power."""
    return rows_to_csv(
        ["blocks", "power_w"],
        [[b, f"{p:.4f}"] for b, p in result.points],
    )
