"""Shared fixtures for the test suite.

Heavy objects (workload launches, full-suite simulations) are cached at
session scope so the many tests that inspect them don't re-simulate.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.isa import Dim3, KernelBuilder, KernelLaunch, Sreg
from repro.request import SimRequest
from repro.sim import gt240, gtx580
from repro.workloads import all_kernel_launches

#: The repository root and the directory holding the ``repro`` package.
ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter (cwd: the repository root, so
    ``tests`` imports too) and return its stdout; fails on a non-zero
    exit."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Parametrises ``request_`` over budgeted ``auto`` requests, one per
#: ladder outcome: a GT240 ``vectorAdd`` whose 5% budget escalates to
#: ``cycle``, and a GTX580 ``BlackScholes`` whose 10% budget the
#: ``surrogate`` meets.
AUTO_REQUESTS = pytest.mark.parametrize(
    "request_",
    [SimRequest(config=gt240(), kernel="vectorAdd", backend="auto",
                error_budget=0.05),
     SimRequest(config=gtx580(), kernel="BlackScholes", backend="auto",
                error_budget=0.10)],
    ids=["GT240-vectorAdd-0.05", "GTX580-BlackScholes-0.10"])


@contextlib.contextmanager
def ladder_counts():
    """Count fidelity-ladder work done while the block runs.

    Yields a dict of counts: ``walks`` (``escalation_path`` calls, one
    per ``auto`` resolution), ``promises`` (``promised_error``
    evaluations by any backend) and ``signatures``
    (``request_signature`` calls).  ``sys.setprofile`` covers the
    calling thread and ``threading.setprofile`` every thread started
    inside the block, such as an event loop's executor threads.
    """
    from repro.backends import all_backends, base
    from repro.runner import cache
    names = {base.escalation_path.__code__: "walks",
             cache.request_signature.__code__: "signatures"}
    for backend in all_backends().values():
        names[type(backend).promised_error.__code__] = "promises"
    counts = dict.fromkeys(names.values(), 0)
    lock = threading.Lock()

    def profile(frame, event, arg):
        name = names.get(frame.f_code) if event == "call" else None
        if name is not None:
            with lock:
                counts[name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield counts
    finally:
        threading.setprofile(None)
        sys.setprofile(previous)


def one_walk(request):
    """``(concrete request, promises one walk evaluates)`` for an
    ``auto`` request."""
    with ladder_counts() as counts:
        concrete, _ = request.resolve()
    assert counts["walks"] == 1
    return concrete, counts["promises"]


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep runner cache writes (e.g. from CLI tests) out of ~/.cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "gpusimpow_cache"))
    # Same hermeticity for surrogate calibration tables: tests see only
    # their own tmp store plus the tables packaged with the code.
    monkeypatch.setenv("REPRO_CALIB_DIR", str(tmp_path / "gpusimpow_calib"))


@pytest.fixture(scope="session")
def gt240_config():
    return gt240()


@pytest.fixture(scope="session")
def gtx580_config():
    return gtx580()


@pytest.fixture(scope="session")
def launches():
    """The 19 evaluation kernel launches, built once."""
    return all_kernel_launches()


def build_tiny_core(n_warps=1, **overrides):
    """A GT240-based core holding one block of ``n_warps`` warps that
    each run ``IADD r0, r1, 1; EXIT`` (config fields overridable)."""
    from repro.sim.core import Core
    from repro.sim.memsys import MemorySystem
    config = gt240().scaled(**overrides)
    core = Core(0, config, MemorySystem(config))
    kb = KernelBuilder("tiny")
    r = kb.regs(2)
    kb.iadd(r[0], r[1], 1)
    kb.exit()
    kernel = kb.build()
    launch = KernelLaunch(kernel, Dim3(1), Dim3(32 * n_warps), gmem_words=4)
    core.prepare(kernel, launch, np.zeros(4), None)
    core.assign_block(0)
    return core


def build_vecadd_launch(n=256, block=64, grid=None):
    """A tiny vector-add launch for fast integration tests."""
    kb = KernelBuilder("tiny_vecadd")
    i, a, b, c = kb.regs(4)
    kb.mov(i, Sreg("gtid"))
    kb.ldg(a, i, offset=0)
    kb.ldg(b, i, offset=n)
    kb.fadd(c, a, b)
    kb.stg(c, i, offset=2 * n)
    kb.exit()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return KernelLaunch(
        kernel=kb.build(),
        grid=Dim3(grid or max(1, n // block)),
        block=Dim3(block),
        globals_init={0: x, n: y},
        gmem_words=3 * n,
    ), x, y


@pytest.fixture()
def vecadd_launch():
    return build_vecadd_launch()


@pytest.fixture(scope="session")
def blackscholes_result_gt240(gt240_config, launches):
    """BlackScholes simulated once on the GT240 (many tests inspect it)."""
    from repro.core import GPUSimPow
    return GPUSimPow(gt240_config).run(launches["BlackScholes"])


@pytest.fixture(scope="session")
def blackscholes_activity(blackscholes_result_gt240):
    return blackscholes_result_gt240.activity
