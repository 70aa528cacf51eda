"""Analytical backend pin: its results are recorded exactly.

``tests/data/analytical_fingerprints.json`` records ``cycles`` and the
full :class:`~repro.sim.activity.ActivityReport` the ``analytical``
backend returns for every evaluation kernel on both GPUs.  A speed-up of
the estimator must leave every one of them bit-identical; a change that
is *meant* to move its estimates regenerates the file.

Regenerate::

    PYTHONPATH=src python -m tests.test_analytical_fingerprints --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.backends.base import get_backend
from repro.sim.config import gt240, gtx580
from repro.workloads import all_kernel_launches

DATA = Path(__file__).parent / "data" / "analytical_fingerprints.json"

GPUS = {"GT240": gt240, "GTX580": gtx580}


def collect() -> dict:
    """``{"<gpu>/<kernel>": {"cycles", "activity"}}`` for all 19
    kernels on both GPUs."""
    backend = get_backend("analytical")
    launches = all_kernel_launches()
    runs = {}
    for gpu, make in GPUS.items():
        config = make()
        for kernel in sorted(launches):
            out = backend.simulate(config, launches[kernel])
            runs[f"{gpu}/{kernel}"] = {"cycles": out.cycles,
                                       "activity": out.activity.to_dict()}
    return runs


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def current():
    # JSON round trip: float64 values survive ``repr`` exactly.
    return json.loads(json.dumps(collect()))


def test_same_run_set(recorded, current):
    assert len(recorded) == 2 * 19
    assert sorted(current) == sorted(recorded)


@pytest.mark.parametrize("gpu", sorted(GPUS))
def test_runs_identical(recorded, current, gpu):
    for key in sorted(recorded):
        if key.startswith(gpu + "/"):
            assert current[key] == recorded[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
