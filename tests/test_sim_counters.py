"""Counter identities of the cycle engine's front end and register file.

Every issued warp instruction makes the same front-end accesses (two
warp-status-table reads, one WST update, one fetch, one decode, one
instruction-buffer fill and tagged search, one divergence-stack read),
every operand read parks in one collector entry and every register-bank
access moves one word group over the crossbar, and the fetch and issue
schedulers run in the same cycles.  The power model reads each of these
counters under its own name; this module pins how they relate to
``issued_instructions`` -- on whole runs, on every telemetry window and
on a sharded run -- so a leaner way of counting cannot change them.
"""

from __future__ import annotations

import pytest

from repro.backends import get_backend
from repro.sim import GPU, gt240, gtx580
from repro.telemetry import ActivityTracer

KERNELS = ("vectorAdd", "scalarProd", "BlackScholes")
GPUS = {"GT240": gt240, "GTX580": gtx580}

#: Counters equal to ``issued_instructions`` times the factor.
PER_ISSUE = {
    "wst_reads": 2, "wst_writes": 1, "fetches": 1, "decodes": 1,
    "ibuffer_writes": 1, "ibuffer_searches": 1, "stack_reads": 1,
}

#: ``(derived, source)`` counters that are always equal.
EQUAL = (("collector_writes", "rf_reads"),
         ("rf_xbar_transfers", "rf_bank_accesses"),
         ("fetch_scheduler_ops", "issue_scheduler_ops"))


def assert_identities(act, where: str) -> None:
    issued = act.issued_instructions
    for name, factor in PER_ISSUE.items():
        assert getattr(act, name) == factor * issued, (where, name)
    for derived, source in EQUAL:
        assert getattr(act, derived) == getattr(act, source), (where, derived)


@pytest.fixture(scope="module")
def traced_runs(launches):
    """``(gpu, kernel)`` -> a cycle run traced in 500-cycle windows."""
    return {(gpu, kernel): GPU(make()).run(launches[kernel],
                                           tracer=ActivityTracer(500.0))
            for gpu, make in GPUS.items() for kernel in KERNELS}


@pytest.mark.parametrize("gpu", sorted(GPUS))
@pytest.mark.parametrize("kernel", KERNELS)
class TestCycleRuns:
    def test_whole_run(self, traced_runs, gpu, kernel):
        act = traced_runs[gpu, kernel].activity
        assert act.issued_instructions > 0
        assert_identities(act, f"{gpu}/{kernel}")

    def test_every_window(self, traced_runs, gpu, kernel):
        windows = traced_runs[gpu, kernel].windows
        assert len(windows) > 1
        for window in windows:
            assert_identities(window.activity,
                              f"{gpu}/{kernel}@{window.start_cycles:g}")


def test_two_shard_parallel_run(launches):
    out = get_backend("parallel_cycle").simulate(
        gtx580(), launches["BlackScholes"], n_shards=2, processes=False,
        tracer=ActivityTracer(500.0))
    assert out.activity.issued_instructions > 0
    assert_identities(out.activity, "parallel")
    assert len(out.windows) > 1
    for window in out.windows:
        assert_identities(window.activity,
                          f"parallel@{window.start_cycles:g}")
