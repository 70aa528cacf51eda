"""Engine equivalence: the cycle engine's results are pinned exactly.

``tests/data/engine_fingerprints.json`` records ``cycles`` and the full
:class:`~repro.sim.activity.ActivityReport` (every ``stall_*`` counter
and ``scoreboard_searches`` included) for six kernels on both GPUs under
all three warp schedulers, plus one traced run (its windows), one
sanitized run (its findings) and one texture-path run.  Any change to
the issue loop, the stall attribution or the memory-path grouping that
moves a single counter fails here.

Regenerate (only when a change is *meant* to alter results, together
with a ``SIM_VERSION`` bump)::

    PYTHONPATH=src python -m tests.test_engine_equivalence --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.backends import get_backend
from repro.sim import GPU, gt240, gtx580
from repro.workloads import all_kernel_launches
from tests.conftest import build_tiny_core

DATA = Path(__file__).parent / "data" / "engine_fingerprints.json"

KERNELS = ("vectorAdd", "scalarProd", "bfs1", "BlackScholes", "needle1",
           "hotspot")
GPUS = {"GT240": gt240, "GTX580": gtx580}
POLICIES = ("rr", "gto", "two_level")


def _run_record(out) -> dict:
    return {"cycles": out.cycles, "activity": out.activity.to_dict()}


def collect() -> dict:
    """Every fingerprint, keyed ``<gpu>/<policy>/<kernel>`` plus the
    ``traced``, ``sanitized`` and ``texture`` extras."""
    from repro.analysis.fuzz import KernelFuzzer
    from repro.telemetry import ActivityTracer
    from tests.test_texture import TEX_CFG, blur_launch

    launches = all_kernel_launches()
    runs = {}
    for gpu, make in GPUS.items():
        for policy in POLICIES:
            config = make().scaled(warp_scheduler=policy)
            for kernel in KERNELS:
                out = GPU(config).run(launches[kernel])
                runs[f"{gpu}/{policy}/{kernel}"] = _run_record(out)

    tracer = ActivityTracer(500.0)
    out = GPU(gtx580()).run(launches["scalarProd"], tracer=tracer)
    traced = _run_record(out)
    traced["windows"] = [w.to_dict() for w in out.windows]

    case = KernelFuzzer(1337).case(1)  # a racy shared-memory kernel
    out = get_backend("cycle").simulate(gt240(), case.launch, sanitize=True)
    sanitized = _run_record(out)
    sanitized["diagnostics"] = [[d.rule, d.pc] for d in out.diagnostics]

    texture = _run_record(GPU(TEX_CFG).run(blur_launch()[0]))
    return {"runs": runs, "traced": traced, "sanitized": sanitized,
            "texture": texture}


def _normalise(data: dict) -> dict:
    """JSON round trip: float64 values survive ``repr`` exactly."""
    return json.loads(json.dumps(data))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def current():
    return _normalise(collect())


class TestFingerprints:
    def test_same_run_set(self, recorded, current):
        assert sorted(current["runs"]) == sorted(recorded["runs"])

    @pytest.mark.parametrize("gpu", sorted(GPUS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_scheduler_runs_identical(self, recorded, current, gpu, policy):
        for kernel in KERNELS:
            key = f"{gpu}/{policy}/{kernel}"
            assert current["runs"][key] == recorded["runs"][key], key

    @pytest.mark.parametrize("extra", ["traced", "sanitized", "texture"])
    def test_extra_runs_identical(self, recorded, current, extra):
        assert current[extra] == recorded[extra]

    def test_fingerprints_exercise_the_stall_and_search_counters(
            self, recorded):
        """The pinned set is only worth something if the counters the
        scan produces are non-trivial in it."""
        runs = recorded["runs"].values()
        for counter in ("stall_dependency", "stall_unit_busy",
                        "stall_ldst_busy", "stall_barrier",
                        "scoreboard_searches"):
            assert any(r["activity"][counter] > 0 for r in runs), counter
        assert recorded["sanitized"]["diagnostics"]


class TestStallAttribution:
    """The two rules a no-issue step follows (the results above depend
    on both)."""

    @staticmethod
    def _stall_one_step(first: str, second: str, rr: int) -> dict:
        """Two warps stalled for ``first`` and ``second`` -- a 1-1 tie --
        stepped at cycle 10 with the round-robin pointer at ``rr``."""
        now = 10.0
        core = build_tiny_core(n_warps=2)
        for warp, reason in zip(core.warps, (first, second)):
            if reason == "barrier":
                warp.at_barrier = True
            elif reason == "dependency":
                warp.blocked_until = now + 5.0
            else:  # unit_busy: the warp is ready, its IADD unit is not
                core.exec_units.groups["int"].free_at = now + 3.0
        core._rr = rr
        core._refresh_ready(now)
        core.step(now)
        return {r: n for r, n in core.stall_cycles.items() if n}

    @pytest.mark.parametrize("first,second", [("barrier", "dependency"),
                                              ("dependency", "unit_busy"),
                                              ("unit_busy", "barrier")])
    def test_tie_goes_to_reason_met_first_in_rotation(self, first, second):
        wake = {"barrier": None, "dependency": 5, "unit_busy": 3}
        gap = min(g for g in (wake[first], wake[second]) if g is not None)
        assert self._stall_one_step(first, second, rr=0) == {first: gap}
        assert self._stall_one_step(first, second, rr=1) == {second: gap}

    @pytest.mark.parametrize("gap,stalled", [(0.4, 1), (1.0, 1), (2.5, 2),
                                             (2.6, 3), (7.0, 7)])
    def test_no_issue_step_adds_rounded_gap(self, gap, stalled):
        now = 3.0
        core = build_tiny_core(n_warps=1)
        warp, = core.warps
        warp.blocked_until = now + gap
        core._refresh_ready(now)
        wake = core.step(now)
        assert wake == max(now + 1.0, now + gap)
        assert core.stall_cycles["dependency"] == max(1, round(wake - now))
        assert core.stall_cycles["dependency"] == stalled


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
