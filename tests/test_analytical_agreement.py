"""Cross-engine agreement: ``analytical`` counts what ``cycle`` counts.

On a launch of one block of one warp the analytical estimator samples
the whole grid (extrapolation factor 1) and has no contention to
approximate, so every *counted* event -- LDST, uncore, issue, register
file, ALU lanes and the reconvergence stack -- must equal the cycle
engine's exactly.  Timing-derived counters (cycles, stalls, scheduler
and front-end activity, DRAM refreshes) are the estimator's own model
and are not compared.

``needle1`` and ``needle2`` are left out: at this shape their
shared-memory stores fall outside the block's tile, which the cycle
engine reports as an ``IndexError`` and the estimator clamps.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backends.base import get_backend
from repro.isa.launch import Dim3
from repro.sim.config import gt240, gtx580
from repro.workloads import all_kernel_launches

GPUS = {"GT240": gt240, "GTX580": gtx580}

#: Kernels whose one-warp launch faults in the cycle engine.
FAULTING = ("needle1", "needle2")

COUNTERS = (
    # LDST unit.
    "mem_instructions", "agu_ops", "coalescer_accesses",
    "coalescer_prt_writes", "mem_transactions", "smem_accesses",
    "smem_conflict_cycles", "smem_xbar_transfers", "bank_conflict_checks",
    "l1_reads", "l1_writes", "l1_misses", "const_reads", "const_misses",
    "tex_requests", "tex_accesses", "tex_misses",
    # Uncore.
    "noc_flits", "l2_reads", "l2_writes", "l2_misses", "mc_accesses",
    "dram_activates", "dram_precharges", "dram_reads", "dram_writes",
    # Issue, register file, ALU lanes.
    "issued_instructions", "rf_reads", "rf_writes", "rf_bank_accesses",
    "collector_reads", "collector_writes", "rf_xbar_transfers",
    "int_ops", "fp_ops", "sfu_ops",
    # Reconvergence stack and control flow.
    "stack_pushes", "stack_pops", "stack_reads", "branches",
    "divergent_branches", "barriers",
)

CASES = [(gpu, kernel) for gpu in sorted(GPUS)
         for kernel in sorted(all_kernel_launches())
         if kernel not in FAULTING]


def test_case_count():
    assert len(CASES) == 2 * (19 - len(FAULTING))


@pytest.mark.parametrize("gpu,kernel", CASES)
def test_one_warp_counters_agree(gpu, kernel):
    config = GPUS[gpu]()
    launch = dataclasses.replace(all_kernel_launches()[kernel],
                                 grid=Dim3(1), block=Dim3(config.warp_size))
    cycle = get_backend("cycle").simulate(config, launch).activity
    analytical = get_backend("analytical").simulate(config, launch).activity
    disagree = {name: (getattr(cycle, name), getattr(analytical, name))
                for name in COUNTERS
                if getattr(cycle, name) != getattr(analytical, name)}
    assert not disagree, disagree
