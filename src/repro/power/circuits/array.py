"""CACTI-lite analytical SRAM array model.

McPAT integrates CACTI 6.5 to model "regular" components -- RAM tables,
caches, register files, buffers.  This module is a from-scratch, reduced
re-implementation of the same idea: given an array organisation (words x
bits, banks, ports) and a technology node, produce area, per-access read
and write energies, and leakage power, from first principles:

* **decoder** -- a chain of gate equivalents, one level per address bit;
* **wordline** -- drives the gate capacitance of two access transistors
  per cell plus the wire running across the row;
* **bitlines** -- reads discharge a partial swing sensed by a sense
  amplifier; writes drive a full swing on the written columns;
* **sense amplifiers / output drivers** -- fixed per-column costs.

The model intentionally keeps CACTI's *structure* (and therefore its
scaling behaviour with size, ports, banks, and process node) while being
small enough to reason about.  Absolute accuracy is anchored by the
paper's empirical measurements at the component level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..tech import TechNode
from .base import CircuitEstimate

#: Energy of one sense-amplifier evaluation relative to a gate switching
#: event (sense amps are a few gate equivalents plus precharge devices).
_SENSE_AMP_GATE_EQ = 4.0

#: Area overhead factor of the periphery (decoders, sense amps, drivers,
#: power rails) on top of the raw cell matrix.  CACTI arrays land around
#: 30-60% periphery for small arrays; we use a size-dependent blend below.
_PERIPHERY_AREA_MIN = 0.25

#: Extra area per additional port: each port adds two access transistors
#: and a wordline/bitline pair per cell, roughly 60% of base cell area.
_PORT_AREA_FACTOR = 0.6

#: Fraction of Vdd a bitline swings during a sensed read.
_READ_SWING_FRAC = 0.12


@dataclass(frozen=True)
class ArrayOrganisation:
    """Logical organisation of an SRAM structure.

    Attributes:
        words: Number of addressable entries.
        bits_per_word: Width of each entry in bits.
        banks: Physical banks the array is split into (a single access
            activates one bank).
        read_ports: Dedicated read ports.
        write_ports: Dedicated write ports.
        rw_ports: Shared read/write ports.
    """

    words: int
    bits_per_word: int
    banks: int = 1
    read_ports: int = 0
    write_ports: int = 0
    rw_ports: int = 1

    def __post_init__(self) -> None:
        if self.words <= 0 or self.bits_per_word <= 0:
            raise ValueError("array must have positive words and width")
        if self.banks <= 0:
            raise ValueError("banks must be positive")
        if self.words % self.banks != 0 and self.words > self.banks:
            # Allow it, but keep bank sizing sane by rounding up.
            pass
        if self.total_ports <= 0:
            raise ValueError("array needs at least one port")

    @property
    def total_ports(self) -> int:
        return self.read_ports + self.write_ports + self.rw_ports

    @property
    def total_bits(self) -> int:
        return self.words * self.bits_per_word


def _bank_geometry(words_per_bank: int, bits: int) -> tuple[int, int]:
    """Choose rows and physical columns for a near-square bank.

    Columns are ``bits * degree`` where ``degree`` words share a physical
    row (column multiplexing); we pick the power-of-two degree that makes
    the bank closest to square, which is what CACTI's exploration
    converges to for small arrays.
    """
    best = (words_per_bank, bits)
    best_ratio = float("inf")
    degree = 1
    while degree <= max(1, words_per_bank):
        rows = max(1, math.ceil(words_per_bank / degree))
        cols = bits * degree
        ratio = max(rows / cols, cols / rows)
        if ratio < best_ratio:
            best_ratio = ratio
            best = (rows, cols)
        degree *= 2
    return best


def sram_array(name: str, org: ArrayOrganisation,
               tech: TechNode) -> CircuitEstimate:
    """Model an SRAM array; returns area, read/write energy, leakage.

    The returned estimate defines two operations: ``"read"`` and
    ``"write"``, each the energy of one access to one bank through one
    port.
    """
    words_per_bank = max(1, math.ceil(org.words / org.banks))
    rows, cols = _bank_geometry(words_per_bank, org.bits_per_word)
    ports = org.total_ports

    # --- Geometry -------------------------------------------------------
    cell_area = tech.sram_cell_area * (1.0 + _PORT_AREA_FACTOR * (ports - 1))
    matrix_area = rows * cols * cell_area
    # Small arrays pay proportionally more periphery; blend 25%..60%.
    periphery = _PERIPHERY_AREA_MIN + 0.35 / (1.0 + org.total_bits / 65536.0)
    bank_area = matrix_area * (1.0 + periphery)
    area = bank_area * org.banks

    # Physical extents of the cell matrix (for wire lengths).
    cell_edge = math.sqrt(cell_area)
    row_length = cols * cell_edge
    col_length = rows * cell_edge

    # --- Decoder --------------------------------------------------------
    addr_bits = max(1, math.ceil(math.log2(max(2, rows))))
    # Predecode + final row decode: ~4 gate equivalents per address bit
    # plus one driver per row fanout stage.
    decoder_cap = ((4 * addr_bits + math.log2(max(2, rows)) * 2)
                   * tech.logic_gate_cap)
    e_decode = tech.energy_cv2(decoder_cap)

    # --- Wordline -------------------------------------------------------
    access_gate_cap = tech.cap_gate_per_um * (2.0 * tech.feature_nm * 1e-3)
    wordline_cap = (cols * 2 * access_gate_cap
                    + row_length * tech.wire_cap_per_m)
    e_wordline = tech.energy_cv2(wordline_cap)

    # --- Bitlines -------------------------------------------------------
    bitline_cap_per_line = (rows * tech.sram_cell_cap
                            + col_length * tech.wire_cap_per_m)
    # A read precharges/discharges both lines of the sensed pair through a
    # partial swing on every physical column.
    e_bitline_read = cols * 2 * tech.energy_cv2(
        bitline_cap_per_line, voltage_swing=_READ_SWING_FRAC * tech.vdd
    )
    # A write drives a full swing, but only on the selected word's columns.
    e_bitline_write = org.bits_per_word * tech.energy_cv2(bitline_cap_per_line)

    # --- Sense amps & output drivers -------------------------------------
    e_sense = (org.bits_per_word * _SENSE_AMP_GATE_EQ
               * tech.energy_cv2(tech.logic_gate_cap))
    e_output = org.bits_per_word * 2.0 * tech.energy_cv2(tech.logic_gate_cap)

    e_read = e_decode + e_wordline + e_bitline_read + e_sense + e_output
    e_write = e_decode + e_wordline + e_bitline_write + e_output

    # --- Leakage ---------------------------------------------------------
    cells = rows * cols * org.banks
    cell_leak_w = cells * tech.sram_cell_leak * tech.vdd
    # Ports add leaking access devices.
    cell_leak_w *= 1.0 + 0.3 * (ports - 1)
    periphery_leak_w = cell_leak_w * 0.10 + (
        org.banks * (4 * addr_bits) * tech.logic_gate_leak * tech.vdd
    )

    return CircuitEstimate(
        name=name,
        area=area,
        energies={"read": e_read, "write": e_write},
        leakage_w=cell_leak_w + periphery_leak_w,
    )


def dff_storage(name: str, bits: int, tech: TechNode) -> CircuitEstimate:
    """Storage built from D flip-flops instead of an SRAM array.

    The paper notes CACTI cannot model buffers with *few but very large*
    entries, such as the coalescer's pending-request table and input
    queue; GPUSimPow instead counts the bits that must be held and models
    them as D flip-flops.  A DFF is ~6 gate equivalents of area/leakage;
    a write switches the flop internals, a read drives an output mux.
    """
    if bits <= 0:
        raise ValueError("dff storage needs a positive bit count")
    gate_eq_per_bit = 6.0
    area = bits * gate_eq_per_bit * tech.logic_gate_area
    leak = bits * gate_eq_per_bit * tech.logic_gate_leak * tech.vdd
    e_write_bit = gate_eq_per_bit * 0.5 * tech.energy_cv2(tech.logic_gate_cap)
    e_read_bit = 1.0 * tech.energy_cv2(tech.logic_gate_cap)
    return CircuitEstimate(
        name=name,
        area=area,
        energies={
            "read": bits * e_read_bit,
            "write": bits * e_write_bit,
            "read_bit": e_read_bit,
            "write_bit": e_write_bit,
        },
        leakage_w=leak,
    )
