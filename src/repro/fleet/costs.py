"""Per-kernel cost resolution through the accuracy ladder.

A fleet trace references kernels by workload label; before dispatch,
every distinct ``(GPU preset, kernel)`` pair is resolved once into a
:class:`KernelCost` -- service time, card power, and the phase split
the ledgers account in.  Resolution goes through the standard
:func:`repro.runner.run_jobs` pool with ``backend="auto"`` and the
scenario's error budget, so a million-request scenario costs only as
many *simulations* as it has distinct pairs, each on the cheapest
ladder rung whose promised error fits the budget (content-addressed
cache hits on top of that).

The phase split follows the power tree's topology: the *memory* path
is the dynamic power of the NoC, memory controller, L2 cache (when the
chip has one) and the external DRAM; *static* is the whole card's leak
floor; *compute* is the remainder (cores + PCIe dynamic).  Compute is
defined as ``card_total_w - static_w - memory_w`` rather than summed
from its own nodes so the three phase powers add back to the card
total without a stray ulp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..power.chip import Chip
from ..request import SimRequest
from ..runner.engine import run_jobs
from ..serialize import Serializable
from ..sim.config import GPUConfig, preset

#: Power-tree nodes whose dynamic power the ledger books as the
#: "memory" phase (plus external DRAM dynamic).  Nodes a preset lacks
#: (GT240 has no L2) are simply skipped.
MEMORY_PATH_NODES = ("NoC", "Memory Controller", "L2 Cache")


@dataclass
class KernelCost(Serializable):
    """Resolved cost of one kernel iteration on one GPU preset.

    Attributes:
        gpu: Preset name (``"GT240"`` / ``"GTX580"``).
        kernel: Workload label.
        runtime_s: Wall-clock seconds of one kernel iteration.
        card_w: Average card power (chip + DRAM) while running.
        energy_j: Card energy of one iteration
            (``card_w * runtime_s``, rounded once -- the ledgers
            multiply *this* by the batch size, so the degenerate
            1-GPU scenario reproduces single-chip energy bit-exactly).
        static_w: Card leak floor (chip + DRAM static).
        memory_w: Dynamic power of the memory path (NoC + memory
            controller + L2 + DRAM dynamic).
        compute_w: Remainder: ``card_w - static_w - memory_w``.
        backend_used: Concrete ladder rung that produced the numbers.
        promised_error: |chip-power| relative error promised by that
            rung at selection time (``None`` for exact replays).
        cached: Whether resolution was a content-addressed cache hit.
    """

    gpu: str
    kernel: str
    runtime_s: float
    card_w: float
    energy_j: float
    static_w: float
    memory_w: float
    compute_w: float
    backend_used: str = ""
    promised_error: Optional[float] = None
    cached: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gpu": self.gpu,
            "kernel": self.kernel,
            "runtime_s": self.runtime_s,
            "card_w": self.card_w,
            "energy_j": self.energy_j,
            "static_w": self.static_w,
            "memory_w": self.memory_w,
            "compute_w": self.compute_w,
            "backend_used": self.backend_used,
            "promised_error": self.promised_error,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelCost":
        return cls(
            gpu=str(data["gpu"]),
            kernel=str(data["kernel"]),
            runtime_s=float(data["runtime_s"]),
            card_w=float(data["card_w"]),
            energy_j=float(data["energy_j"]),
            static_w=float(data["static_w"]),
            memory_w=float(data["memory_w"]),
            compute_w=float(data["compute_w"]),
            backend_used=str(data.get("backend_used", "")),
            promised_error=(None if data.get("promised_error") is None
                            else float(data["promised_error"])),
            cached=bool(data.get("cached", False)),
        )


def idle_card_w(config: GPUConfig) -> float:
    """Card power (chip + DRAM) of an idle chip: the leak floor plus
    the idle clock tree -- the paper's "single chip causes massive
    power bills" term, paid every second a GPU sits provisioned but
    unused."""
    chip = Chip(config)
    return chip.evaluate(chip.idle_activity(1.0)).card_total_w


def _phase_split(report) -> Tuple[float, float, float]:
    """``(static_w, memory_w, compute_w)`` of one power report."""
    static_w = report.gpu.total_static_w + report.dram.total_static_w
    memory_w = report.dram.total_dynamic_w
    for name in MEMORY_PATH_NODES:
        node = report.gpu.find(name)
        if node is not None:
            memory_w += node.total_dynamic_w
    compute_w = report.card_total_w - static_w - memory_w
    return static_w, memory_w, compute_w


def resolve_costs(pairs: Sequence[Tuple[str, str]],
                  error_budget: Optional[float] = None,
                  n_jobs: Optional[int] = None,
                  cache: Any = "auto",
                  progress: Optional[Callable] = None,
                  timeout_s: Optional[float] = None,
                  ) -> Dict[Tuple[str, str], KernelCost]:
    """Resolve every distinct ``(preset, kernel)`` pair to its cost.

    Args:
        pairs: Distinct ``(preset_name, workload_label)`` pairs (order
            defines job order; duplicates are an error -- the caller
            dedupes).
        error_budget: Scenario-wide acceptable |chip-power| relative
            error, steering ``backend="auto"`` per job.  ``None`` runs
            the exact cycle tier.
        n_jobs / cache / progress / timeout_s: Forwarded to
            :func:`repro.runner.run_jobs`.

    Returns:
        ``{(preset, kernel): KernelCost}`` for every input pair.
    """
    pairs = list(pairs)
    if len(set(pairs)) != len(pairs):
        raise ValueError("resolve_costs expects distinct (gpu, kernel) "
                         "pairs; dedupe before calling")
    if cache == "auto":
        from ..runner.engine import AUTO
        cache = AUTO
    jobs: List[SimRequest] = []
    for gpu_name, kernel in pairs:
        config = preset(gpu_name)
        if error_budget is None:
            jobs.append(SimRequest(config=config, kernel=kernel))
        else:
            jobs.append(SimRequest(config=config, kernel=kernel,
                                   backend="auto", error_budget=error_budget))
    results = run_jobs(jobs, n_jobs=n_jobs, cache=cache,
                       progress=progress, timeout_s=timeout_s)

    costs: Dict[Tuple[str, str], KernelCost] = {}
    chips: Dict[str, Chip] = {}
    for (gpu_name, kernel), result in zip(pairs, results):
        chip = chips.get(gpu_name)
        if chip is None:
            chip = chips[gpu_name] = Chip(preset(gpu_name))
        report = chip.evaluate(result.activity)
        static_w, memory_w, compute_w = _phase_split(report)
        costs[(gpu_name, kernel)] = KernelCost(
            gpu=gpu_name,
            kernel=kernel,
            runtime_s=report.runtime_s,
            card_w=report.card_total_w,
            energy_j=report.card_total_w * report.runtime_s,
            static_w=static_w,
            memory_w=memory_w,
            compute_w=compute_w,
            backend_used=result.backend,
            promised_error=result.promised_error,
            cached=result.cached,
        )
    return costs
