"""Shared infrastructure for the benchmark workloads (Table I).

Every benchmark module exposes ``build() -> list[KernelLaunch]`` with one
entry per kernel (Fig. 6 evaluates 19 kernels across 12 benchmarks).
Problem sizes are scaled down from the originals so the cycle-level
simulator runs them in seconds, but each kernel keeps its original
algorithmic structure -- compute/memory balance, divergence pattern,
shared-memory usage -- which is what determines per-component activity.

Each benchmark is built once per process and its launches are shared
by every caller (:func:`build_benchmark`, :func:`all_kernel_launches`,
:func:`kernel_launch`, which label resolution in
:meth:`repro.request.SimRequest.resolve_launch` goes through).
A shared launch is read-only: its ``globals_init`` arrays and
``const_init`` refuse writes, and the simulator copies them into a
fresh memory image for every run
(:meth:`~repro.isa.launch.KernelLaunch.build_global_memory`).  To
change a launch, build a new one with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..isa.launch import KernelLaunch

#: Deterministic seed so runs are reproducible.
SEED = 20130421


def rng() -> np.random.Generator:
    """Fresh deterministic random generator for workload inputs."""
    return np.random.default_rng(SEED)


@dataclass(frozen=True)
class BenchmarkInfo:
    """Table I row: benchmark name, kernel count, description, origin."""

    name: str
    n_kernels: int
    description: str
    origin: str


_REGISTRY: Dict[str, Callable[[], List[KernelLaunch]]] = {}
_INFO: Dict[str, BenchmarkInfo] = {}
#: Benchmark name -> its launches, built on first use (see module doc).
_BUILT: Dict[str, List[KernelLaunch]] = {}
#: Fig. 6 label -> its shared launch, built on first use.
_BY_LABEL: Optional[Dict[str, KernelLaunch]] = None


def register(info: BenchmarkInfo):
    """Decorator registering a benchmark's ``build`` function."""

    def wrap(fn: Callable[[], List[KernelLaunch]]):
        _REGISTRY[info.name] = fn
        _INFO[info.name] = info
        return fn

    return wrap


def benchmark_names() -> List[str]:
    """Registered benchmark names, Table I order preserved."""
    _ensure_loaded()
    return list(_REGISTRY)


def benchmark_info(name: str) -> BenchmarkInfo:
    """One benchmark's Table I row."""
    _ensure_loaded()
    return _INFO[name]


def build_benchmark(name: str) -> List[KernelLaunch]:
    """All kernel launches of one benchmark, shared and read-only.

    A new list on every call, over the launches built once per process.
    """
    _ensure_loaded()
    if name not in _REGISTRY:
        raise KeyError(f"unknown benchmark {name!r}; have {sorted(_REGISTRY)}")
    return list(_shared(name))


def all_kernel_launches() -> Dict[str, KernelLaunch]:
    """The 19 evaluation kernels keyed by their Fig. 6 label.

    A new dict on every call, over the shared, read-only launches of
    :func:`build_benchmark`.
    """
    _ensure_loaded()
    return {launch.kernel.name: launch
            for name in _REGISTRY for launch in _shared(name)}


def kernel_launch(label: str) -> KernelLaunch:
    """The shared, read-only launch of one Fig. 6 kernel label.

    Looked up in a table built once per process (``KeyError`` for an
    unknown label).  Threads racing the first call may each build the
    table; every copy holds the same launch objects.
    """
    global _BY_LABEL
    table = _BY_LABEL
    if table is None:
        table = _BY_LABEL = all_kernel_launches()
    launch = table.get(label)
    if launch is None:
        raise KeyError(f"unknown workload kernel {label!r}")
    return launch


def _shared(name: str) -> List[KernelLaunch]:
    """One benchmark's launches, built and frozen once per process.

    ``setdefault`` keeps the first stored build, so a label names one
    launch object even when the daemon resolves it from its event loop
    and executor threads at once (a cold race may build twice; the
    loser's copy is dropped).
    """
    launches = _BUILT.get(name)
    if launches is None:
        built = _REGISTRY[name]()
        for launch in built:
            for arr in launch.globals_init.values():
                arr.flags.writeable = False
            if launch.const_init is not None:
                launch.const_init.flags.writeable = False
        launches = _BUILT.setdefault(name, built)
    return launches


def _ensure_loaded() -> None:
    # Import benchmark modules for their registration side effects.
    from . import (backprop, bfs, blackscholes, heartwall, hotspot,  # noqa: F401
                   kmeans, matmul, mergesort, needle, pathfinder,
                   scalarprod, vectoradd)
