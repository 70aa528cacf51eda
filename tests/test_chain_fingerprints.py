"""Kernel chains are pinned exactly: ``GPUSimPow.run_benchmark`` outputs.

``tests/data/chain_fingerprints.json`` records, for the multi-kernel
benchmarks ``bfs``, ``backprop`` and ``mergesort`` on GT240, run through
:meth:`~repro.core.gpusimpow.GPUSimPow.run_benchmark` on the ``cycle``
and ``functional_ref`` backends, each kernel's cycle count, full
activity report, per-window activity deltas, power summary and power
trace samples, plus the order of the :class:`~repro.telemetry.TraceSink`
``on_begin``/``on_end`` calls.  Each chain runs untraced, traced every
500 cycles with a sink, and with only a sink (the 1000-cycle default
interval).  Any change to the chain path -- memory-image sharing,
tracer setup, power evaluation -- that moves a single value fails here.

Regenerate (only when a change is *meant* to alter results, together
with a ``SIM_VERSION`` bump)::

    PYTHONPATH=src python -m tests.test_chain_fingerprints --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core import GPUSimPow
from repro.request import SimRequest
from repro.sim import gt240
from repro.telemetry import TraceSink

DATA = Path(__file__).parent / "data" / "chain_fingerprints.json"

BENCHMARKS = ("bfs", "backprop", "mergesort")
BACKENDS = ("cycle", "functional_ref")
#: variant -> (trace_interval, pass a sink)
VARIANTS = {"untraced": (None, False), "traced500": (500.0, True),
            "sink": (None, True)}


class _OrderSink(TraceSink):
    """Records the begin/end bracket of every traced kernel."""

    def __init__(self) -> None:
        self.events: list = []

    def on_begin(self, config, launch, interval_cycles):
        self.events.append(["begin", launch.kernel.name, interval_cycles])

    def on_end(self, aggregate, cycles):
        self.events.append(["end", cycles])


def _kernel_record(result) -> dict:
    perf = result.performance
    record = {
        "kernel": result.kernel_name,
        "backend": result.backend,
        "promised_error": result.promised_error,
        "cycles": perf.cycles,
        "activity": perf.activity.to_dict(),
        "summary": result.summary(),
        "windows": (None if perf.windows is None
                    else [w.to_dict() for w in perf.windows]),
    }
    if result.trace is not None:
        record["trace"] = {
            "interval_cycles": result.trace.interval_cycles,
            "samples": [[s.start_s, s.end_s, s.chip_static_w,
                         s.chip_dynamic_w, s.dram_w]
                        for s in result.trace.samples],
        }
    return record


def run_chain(benchmark: str, backend: str, variant: str) -> dict:
    interval, with_sink = VARIANTS[variant]
    config = gt240()
    sink = _OrderSink() if with_sink else None
    result = GPUSimPow(config).run_benchmark(
        SimRequest(config=config, kernel=benchmark, backend=backend,
                   trace_interval=interval), sink=sink)
    return {"benchmark": result.benchmark,
            "kernels": [_kernel_record(k) for k in result.kernels],
            "sink_events": None if sink is None else sink.events}


def collect() -> dict:
    """Every chain fingerprint, keyed ``<benchmark>/<backend>/<variant>``."""
    return {f"{bm}/{backend}/{variant}": run_chain(bm, backend, variant)
            for bm in BENCHMARKS for backend in BACKENDS
            for variant in VARIANTS}


def _normalise(data: dict) -> dict:
    """JSON round trip: float64 values survive ``repr`` exactly."""
    return json.loads(json.dumps(data))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


CASES = [f"{bm}/{backend}/{variant}" for bm in BENCHMARKS
         for backend in BACKENDS for variant in VARIANTS]


def test_covers_every_chain(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_chain_matches_fingerprint(recorded, case):
    bm, backend, variant = case.split("/")
    assert _normalise(run_chain(bm, backend, variant)) == recorded[case]


def test_fingerprints_exercise_chains_and_tracing(recorded):
    """The fixture really pins multi-kernel chains, windows and sinks."""
    for case, entry in recorded.items():
        assert len(entry["kernels"]) >= 2, case
        traced = not case.endswith("/untraced")
        for kernel in entry["kernels"]:
            assert (kernel["windows"] is not None) == traced, case
        if traced:
            kinds = [event[0] for event in entry["sink_events"]]
            assert kinds == ["begin", "end"] * len(entry["kernels"]), case


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        raise SystemExit("usage: python -m tests.test_chain_fingerprints "
                         "--regen")
    DATA.write_text(json.dumps(_normalise(collect()), indent=1,
                               sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
