"""Power-model invariants: window energies against whole-run energy.

:meth:`~repro.power.chip.Chip.evaluate` turns one activity report into
average power over that report's runtime, so energy is power times
runtime.  A traced run can be evaluated two ways: once on the aggregate
report (``SimulationResult.energy_j``) and once per telemetry window,
summing the window energies (``PowerTrace.energy_j``).  Component by
component, the two relate as follows.

* **Additive components.**  Window energies sum to the aggregate energy.
  - Leakage, the uncore "active" power (NoC, memory controller, PCIe)
    and the DRAM background power are constant while the run lasts, and
    the windows tile the run, so their energy is proportional to time.
  - Event-rate power is ``sum(count * energy) / runtime``, so its energy
    is ``sum(count * energy)``; the window counters sum exactly to the
    aggregate counters (``sum_windows``), DRAM refreshes included.
  Only float rounding separates the two sides: ``REL`` is 1e-12,
  relative, while the genuine gaps below are 1e-5 and larger.
* **Core and cluster base power** (``per_core_w * active_cores``,
  ``per_cluster_w * active_clusters``) is not additive.  A window sees
  the *cumulative* occupancy at its end: the cores that have retired a
  block by then.  Early windows therefore see fewer active cores than
  the aggregate, often none, and their base energy is smaller.  The
  exact relation is ``sum_w per_core_w * A_w * t_w``, which is at most
  ``per_core_w * A * T``.
* **Register file** is not additive.  It splits bank accesses into
  reads and writes by the ratio ``rf_reads / (rf_reads + rf_writes)``,
  and a ratio of sums is not a sum of ratios.  The gap is exactly
  ``(e_read - e_write) * sum_w banks_w * (f_w - f)``, times the
  register-file calibration and the short-circuit uplift.
* **Clamps.**  Event-rate and "active" power are 0 for a report with no
  runtime.  Every window here has positive runtime (asserted), so no
  clamp drops a window's counts.
"""

from __future__ import annotations

import pytest

from repro.core import GPUSimPow
from repro.power import calibration as cal
from repro.power.components.basepower import (ClusterBasePower,
                                              CoreBasePower)
from repro.power.components.regfile import RegisterFilePower
from repro.request import SimRequest
from repro.sim import gt240, gtx580
from repro.telemetry import sum_windows

KERNELS = ("vectorAdd", "scalarProd", "BlackScholes", "hotspot")
GPUS = {"GT240": gt240, "GTX580": gtx580}
NON_ADDITIVE = ("Base Power", "Cluster/Scheduler Base", "Register File")
#: Relative float-rounding allowance (see the module docstring).
REL = 1e-12

CASES = [(gpu, kernel) for gpu in GPUS for kernel in KERNELS]


@pytest.fixture(scope="module")
def runs():
    """(gpu, kernel) -> (simulator, traced SimulationResult)."""
    out = {}
    for gpu, make in GPUS.items():
        sim = GPUSimPow(make())
        for kernel in KERNELS:
            out[gpu, kernel] = sim, sim.run(SimRequest(
                config=sim.config, kernel=kernel, trace_interval=500.0))
    return out


def _component(chip, cls):
    return next(c for c in chip.core_components if isinstance(c, cls))


def _leaves(report):
    """name -> total watts of every core, uncore and DRAM component."""
    cores, *uncore = report.gpu.children
    nodes = cores.children + uncore + report.dram.children
    return {node.name: node.total_w for node in nodes}


def _component_energies(chip, activity):
    return {name: watts * activity.runtime_s
            for name, watts in _leaves(chip.evaluate(activity)).items()}


def _window_energies(chip, windows):
    total: dict = {}
    for w in windows:
        for name, joules in _component_energies(
                chip, w.power_activity()).items():
            total[name] = total.get(name, 0.0) + joules
    return total


def _concat(windows):
    """Consecutive windows as one report: counters summed, runtime the
    summed durations, occupancy that of the last window's end."""
    act = sum_windows(windows)
    act.runtime_s = sum(w.activity.runtime_s for w in windows)
    act.shader_cycles = sum(w.activity.shader_cycles for w in windows)
    act.active_cores = windows[-1].active_cores
    act.active_clusters = windows[-1].active_clusters
    return act


def _base_gap(chip, result):
    """Window minus aggregate base-power energy (exact relation)."""
    core = _component(chip, CoreBasePower)
    cluster = _component(chip, ClusterBasePower)
    act = result.activity
    return sum((core.per_core_w * (w.active_cores - act.active_cores)
                + cluster.per_cluster_w
                * (w.active_clusters - act.active_clusters))
               * w.activity.runtime_s
               for w in result.performance.windows)


def _regfile_gap(chip, result):
    """Window minus aggregate register-file energy (exact relation)."""
    bank = _component(chip, RegisterFilePower).circuits["bank_access"]
    act = result.activity

    def read_frac(a):
        ops = a.rf_reads + a.rf_writes
        return a.rf_reads / ops if ops else 0.0

    spread = sum(w.activity.rf_bank_accesses
                 * (read_frac(w.activity) - read_frac(act))
                 for w in result.performance.windows)
    return ((bank.energy("read") - bank.energy("write")) * spread
            * cal.RF_ENERGY * (1.0 + chip.tech.short_circuit_frac))


@pytest.mark.parametrize("gpu,kernel", CASES)
class TestWindowEnergy:
    def test_windows_have_positive_runtime(self, runs, gpu, kernel):
        _, result = runs[gpu, kernel]
        assert len(result.performance.windows) >= 2
        assert all(w.activity.runtime_s > 0
                   for w in result.performance.windows)

    def test_additive_components_sum_to_aggregate(self, runs, gpu,
                                                  kernel):
        sim, result = runs[gpu, kernel]
        windows = _window_energies(sim.chip, result.performance.windows)
        whole = _component_energies(sim.chip, result.activity)
        assert set(windows) == set(whole)
        for name in set(whole) - set(NON_ADDITIVE):
            assert windows[name] == pytest.approx(whole[name], rel=REL,
                                                  abs=0.0), name

    def test_base_power_relation(self, runs, gpu, kernel):
        sim, result = runs[gpu, kernel]
        windows = _window_energies(sim.chip, result.performance.windows)
        whole = _component_energies(sim.chip, result.activity)
        base = ("Base Power", "Cluster/Scheduler Base")
        gap = sum(windows[n] for n in base) - sum(whole[n] for n in base)
        expected = _base_gap(sim.chip, result)
        assert gap == pytest.approx(expected, rel=REL,
                                    abs=REL * sum(whole[n] for n in base))
        assert gap <= 0.0

    def test_regfile_relation(self, runs, gpu, kernel):
        sim, result = runs[gpu, kernel]
        windows = _window_energies(sim.chip, result.performance.windows)
        whole = _component_energies(sim.chip, result.activity)
        gap = windows["Register File"] - whole["Register File"]
        assert gap == pytest.approx(_regfile_gap(sim.chip, result),
                                    rel=REL,
                                    abs=REL * whole["Register File"])

    def test_trace_energy_relation(self, runs, gpu, kernel):
        """PowerTrace.energy_j = SimulationResult.energy_j plus exactly
        the base-power and register-file gaps."""
        sim, result = runs[gpu, kernel]
        expected = (result.energy_j + _base_gap(sim.chip, result)
                    + _regfile_gap(sim.chip, result))
        assert result.trace.energy_j == pytest.approx(
            expected, rel=REL, abs=0.0)


@pytest.mark.parametrize("gpu,kernel", CASES)
def test_evaluate_is_additive_over_concatenated_windows(runs, gpu, kernel):
    """Every split of the window sequence into a head and a tail: the
    additive components' energy on head + tail equals their energy on
    the concatenation of all windows, which is the aggregate report."""
    sim, result = runs[gpu, kernel]
    windows = result.performance.windows
    whole = _component_energies(sim.chip, _concat(windows))
    aggregate = _component_energies(sim.chip, result.activity)
    for k in range(1, len(windows)):
        head = _component_energies(sim.chip, _concat(windows[:k]))
        tail = _component_energies(sim.chip, _concat(windows[k:]))
        for name in set(whole) - set(NON_ADDITIVE):
            assert head[name] + tail[name] == pytest.approx(
                whole[name], rel=REL, abs=0.0), (k, name)
            assert whole[name] == pytest.approx(
                aggregate[name], rel=REL, abs=0.0), name
