"""Primitives for Eq. 1 of the paper.

The paper grounds the whole power model in the classic switching-power
equation::

    P_total = alpha * C * Vdd * dV * f_clk          (dynamic)
            + Vdd * I_short_circuit                 (short circuit)
            + Vdd * I_leakage                       (static / leakage)

These helpers express each term.  Circuit models usually work per-event
(energy per access) and convert to power by multiplying with an access
rate; both views are provided.
"""

from __future__ import annotations


def dynamic_power(alpha: float, capacitance: float, vdd: float,
                  swing: float, f_clk: float) -> float:
    """First term of Eq. 1: switching power in watts.

    Args:
        alpha: Activity factor -- fraction of ``capacitance`` charged per
            cycle (0..1, may exceed 1 for multi-pumped structures).
        capacitance: Total switchable capacitance in farads.
        vdd: Supply voltage in volts.
        swing: Voltage swing dV in volts (== vdd for full-swing CMOS).
        f_clk: Clock frequency in hertz.
    """
    return alpha * capacitance * vdd * swing * f_clk


def switching_energy(capacitance: float, vdd: float,
                     swing: float | None = None) -> float:
    """Energy of one switching event: C * Vdd * dV, in joules."""
    if swing is None:
        swing = vdd
    return capacitance * vdd * swing


def short_circuit_power(dynamic_w: float, fraction: float) -> float:
    """Second term of Eq. 1, modeled as a fraction of dynamic power.

    During a transition both the pull-up and pull-down network conduct
    briefly; for reasonably sized gates this is an approximately constant
    fraction (~10%) of the switching power, which is how McPAT treats it.
    """
    return dynamic_w * fraction


def leakage_power(i_leakage: float, vdd: float) -> float:
    """Third term of Eq. 1: static power in watts from leakage current."""
    return i_leakage * vdd


def activity_factor(accesses: float, cycles: float) -> float:
    """Activity factor alpha from an access count over a cycle window.

    Returns 0 for an empty window so idle components report zero dynamic
    power instead of raising.
    """
    if cycles <= 0:
        return 0.0
    return accesses / cycles
