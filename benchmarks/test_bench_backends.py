"""Bench: the analytical backend against the cycle-accurate reference.

Runs the Table IV suite through both backends on the GTX580 (the larger
chip, where the per-cycle loop is most expensive) and measures the
speed/accuracy trade the ``analytical`` backend buys: wall-clock
speedup of the estimator over the full simulation, and the absolute
relative error of the resulting chip total power.  Numbers land in
``BENCH_backends.json`` (override with ``$BENCH_BACKENDS_JSON``) so CI
can archive them per machine.

The two sides are timed interleaved, so a slow spell of the host lands
on both: each of ``ROUNDS`` rounds times the cycle side once and the
analytical side ``ANALYTICAL_REPEATS`` times, and each side reports its
best run.  The analytical side repeats more often because its runs are
in the milliseconds, where a single sample is noise-dominated.
"""

import json
import os
import time

from benchmarks.conftest import pedantic_once
from repro.backends import get_backend
from repro.power.chip import Chip
from repro.sim import gtx580
from repro.workloads import all_kernel_launches

#: Same 4-kernel Table IV suite the runner bench uses.
SUITE = ["BlackScholes", "heartwall", "pathfinder", "hotspot"]

#: Interleaved measurement rounds (one cycle-side run each) ...
ROUNDS = 3
#: ... and analytical-side runs per round.
ANALYTICAL_REPEATS = 5


def _write_report(stats):
    path = os.environ.get("BENCH_BACKENDS_JSON", "BENCH_backends.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
    print(f"\nbackends bench report written to {path}")


def test_bench_backends(benchmark):
    config = gtx580()
    launches = all_kernel_launches()
    chip = Chip(config)
    cycle = get_backend("cycle")
    analytical = get_backend("analytical")

    def run_suite(backend):
        return {name: backend.simulate(config, launches[name])
                for name in SUITE}

    def timed(backend):
        start = time.perf_counter()
        outputs = run_suite(backend)
        return outputs, time.perf_counter() - start

    def measure():
        cycle_runs, ana_runs = [], []
        for _ in range(ROUNDS):
            cyc, elapsed = timed(cycle)
            cycle_runs.append(elapsed)
            for _ in range(ANALYTICAL_REPEATS):
                ana, elapsed = timed(analytical)
                ana_runs.append(elapsed)
        cycle_s = min(cycle_runs)
        ana_s = min(ana_runs)

        errors = {}
        for name in SUITE:
            w_cyc = chip.evaluate(cyc[name].activity).chip_total_w
            w_ana = chip.evaluate(ana[name].activity).chip_total_w
            errors[name] = abs(w_ana - w_cyc) / w_cyc
        return {
            "suite": SUITE,
            "gpu": config.name,
            "cycle_s": cycle_s,
            "analytical_s": ana_s,
            "cycle_runs_s": cycle_runs,
            "analytical_runs_s": ana_runs,
            "speedup": cycle_s / ana_s,
            "power_abs_rel_error": errors,
            "mean_abs_power_error": sum(errors.values()) / len(errors),
            "max_abs_power_error": max(errors.values()),
        }

    stats = pedantic_once(benchmark, measure)
    _write_report(stats)
    print(f"cycle {stats['cycle_s']:.2f}s  "
          f"analytical {stats['analytical_s'] * 1e3:.1f}ms  "
          f"speedup {stats['speedup']:.0f}x  "
          f"mean |power err| {stats['mean_abs_power_error'] * 100:.1f}%")

    # The estimator's reason to exist: orders of magnitude faster...
    assert stats["speedup"] > 100
    # ...while staying in the same power regime as the reference.
    assert stats["mean_abs_power_error"] < 0.20
    assert stats["max_abs_power_error"] < 0.35
