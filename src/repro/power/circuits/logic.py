"""Gate-level logic circuit models.

The irregular logic blocks of the paper's architecture -- priority
encoders in the rotating-priority warp schedulers (modeled "from
appropriate circuit plans" after Kun et al.), instruction decoders,
comparators, multiplexers, finite state machines -- reduce to counts of
gate equivalents at the circuit tier.  One *gate equivalent* is a 2-input
NAND with local wiring, whose capacitance/area/leakage come from the
technology tier.
"""

from __future__ import annotations

import math

from ..tech import TechNode
from .base import CircuitEstimate


def logic_block(name: str, gate_count: float, tech: TechNode,
                activity_gates: float | None = None) -> CircuitEstimate:
    """Generic block of ``gate_count`` gate equivalents.

    Defines one operation ``"op"`` that switches ``activity_gates`` gates
    (default: 30% of the block, a typical logic activity ratio).
    """
    if gate_count <= 0:
        raise ValueError("logic block needs a positive gate count")
    if activity_gates is None:
        activity_gates = 0.3 * gate_count
    return CircuitEstimate(
        name=name,
        area=gate_count * tech.logic_gate_area,
        energies={"op": activity_gates * tech.energy_cv2(tech.logic_gate_cap)},
        leakage_w=gate_count * tech.logic_gate_leak * tech.vdd,
    )


def priority_encoder(name: str, width: int, tech: TechNode) -> CircuitEstimate:
    """Parallel priority-lookahead encoder of ``width`` request lines.

    Follows the structure of the power-optimised 64-bit design of Kun,
    Quan and Mason (ISCAS 2004) the paper cites: groups of 8-bit encoders
    plus a lookahead tree.  Gate count grows as ``width * log2(width)``.
    """
    if width <= 0:
        raise ValueError("priority encoder needs positive width")
    levels = max(1, math.ceil(math.log2(max(2, width))))
    gates = width * (2.0 + 0.75 * levels)
    return logic_block(name, gates, tech, activity_gates=0.4 * gates)


def rotating_priority_scheduler(name: str, width: int,
                                tech: TechNode) -> CircuitEstimate:
    """Round-robin (rotating priority) scheduler for ``width`` warps.

    Per the paper: "a set of inverters, a wide priority encoder, and a
    phase counter".  The inverters rotate the request vector, the phase
    counter tracks the rotation offset.
    """
    encoder = priority_encoder(f"{name}.encoder", width, tech)
    counter_bits = max(1, math.ceil(math.log2(max(2, width))))
    inverters = logic_block(f"{name}.rotate", width * 1.5, tech,
                            activity_gates=0.5 * width)
    counter = logic_block(f"{name}.phase_counter", counter_bits * 8.0, tech,
                          activity_gates=counter_bits * 2.0)
    return CircuitEstimate(
        name=name,
        area=encoder.area + inverters.area + counter.area,
        energies={
            "op": (encoder.energy("op") + inverters.energy("op")
                   + counter.energy("op")),
        },
        leakage_w=encoder.leakage_w + inverters.leakage_w + counter.leakage_w,
    )


def instruction_decoder(name: str, opcode_bits: int,
                        tech: TechNode) -> CircuitEstimate:
    """Instruction decoder (McPAT's RISC decoder structure, reused here).

    Roughly an opcode PLA plus operand steering: a few hundred gates for a
    GPU-style fixed-width ISA.
    """
    gates = 160.0 + 40.0 * opcode_bits
    return logic_block(name, gates, tech, activity_gates=0.35 * gates)


def comparator(name: str, bits: int, tech: TechNode) -> CircuitEstimate:
    """Equality comparator of ``bits`` (XOR tree + AND reduce)."""
    gates = bits * 1.5 + math.ceil(math.log2(max(2, bits))) * 2.0
    return logic_block(name, gates, tech, activity_gates=0.5 * gates)


def fsm(name: str, states: int, inputs: int,
        tech: TechNode) -> CircuitEstimate:
    """Small Moore FSM: state flops + next-state logic."""
    state_bits = max(1, math.ceil(math.log2(max(2, states))))
    gates = state_bits * 8.0 + states * inputs * 1.2
    return logic_block(name, gates, tech, activity_gates=0.3 * gates)
