"""Power-vs-time traces: the simulator-side equivalent of Fig. 5.

The paper's testbed samples card power at 31.2 kHz while a kernel runs;
:class:`PowerTrace` is the simulated counterpart.  Each telemetry
:class:`~repro.telemetry.window.ActivityWindow` is fed through the
unchanged :meth:`repro.power.chip.Chip.evaluate` pipeline, yielding one
:class:`PowerSample` per window with the full per-component breakdown
-- so "where do the watts go?" can be answered cycle-window by
cycle-window, not just as one kernel-wide average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..serialize import Serializable
from ..sim.activity import ActivityReport
from ..sim.config import GPUConfig
from .window import (ActivityWindow, sum_windows, windows_from_dicts,
                     windows_to_dicts)


@dataclass
class PowerSample(Serializable):
    """Average power over one telemetry window.

    ``components`` maps every top-level chip component (``Cores``,
    ``NoC``, ``Memory Controller``, ``PCIe Controller``, optionally
    ``L2``) plus ``DRAM`` to its ``{"static_w", "dynamic_w"}`` pair.
    """

    index: int
    start_s: float
    end_s: float
    chip_static_w: float
    chip_dynamic_w: float
    dram_w: float
    components: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def chip_total_w(self) -> float:
        return self.chip_static_w + self.chip_dynamic_w

    @property
    def card_w(self) -> float:
        """Chip + external DRAM: what the card-level testbed measures."""
        return self.chip_total_w + self.dram_w

    @property
    def energy_j(self) -> float:
        return self.card_w * self.duration_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "chip_static_w": self.chip_static_w,
            "chip_dynamic_w": self.chip_dynamic_w,
            "dram_w": self.dram_w,
            "components": self.components,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PowerSample":
        return cls(
            index=int(data["index"]),
            start_s=float(data["start_s"]),
            end_s=float(data["end_s"]),
            chip_static_w=float(data["chip_static_w"]),
            chip_dynamic_w=float(data["chip_dynamic_w"]),
            dram_w=float(data["dram_w"]),
            components={name: dict(parts)
                        for name, parts in data.get("components", {}).items()},
        )


@dataclass
class PowerTrace(Serializable):
    """A kernel's power over time, with per-component breakdown.

    Self-contained and serialisable: carries the configuration, the raw
    activity windows (so the power model can be re-swept over the trace
    without re-simulating) and the evaluated power samples.
    """

    kernel: str
    config: GPUConfig
    interval_cycles: float
    windows: List[ActivityWindow] = field(default_factory=list)
    samples: List[PowerSample] = field(default_factory=list)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_windows(cls, config: GPUConfig, kernel: str,
                     windows: Sequence[ActivityWindow],
                     interval_cycles: float,
                     chip=None) -> "PowerTrace":
        """Evaluate the power model on every window of a traced run."""
        if chip is None:
            from ..power.chip import Chip
            chip = Chip(config)
        samples = []
        start_s = 0.0
        for w in windows:
            report = chip.evaluate(w.power_activity())
            components = {
                child.name: {"static_w": child.total_static_w,
                             "dynamic_w": child.total_dynamic_w}
                for child in report.gpu.children
            }
            components["DRAM"] = {"static_w": report.dram.total_static_w,
                                  "dynamic_w": report.dram.total_dynamic_w}
            samples.append(PowerSample(
                index=w.index,
                start_s=start_s,
                end_s=w.end_runtime_s,
                chip_static_w=report.chip_static_w,
                chip_dynamic_w=report.chip_dynamic_w,
                dram_w=report.dram.total_w,
                components=components,
            ))
            start_s = w.end_runtime_s
        return cls(kernel=kernel, config=config,
                   interval_cycles=float(interval_cycles),
                   windows=list(windows), samples=samples)

    # -- analysis -------------------------------------------------------------

    @property
    def n_windows(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return self.samples[-1].end_s if self.samples else 0.0

    @property
    def energy_j(self) -> float:
        """Card energy integrated over the trace (sum of window energies)."""
        return sum(s.energy_j for s in self.samples)

    @property
    def peak_card_w(self) -> float:
        return max((s.card_w for s in self.samples), default=0.0)

    @property
    def mean_card_w(self) -> float:
        """Time-weighted average card power over the trace."""
        t = self.duration_s
        return self.energy_j / t if t > 0 else 0.0

    def card_watts(self) -> List[float]:
        """The card power series, one value per window."""
        return [s.card_w for s in self.samples]

    def component_watts(self, name: str) -> List[float]:
        """Total (static+dynamic) power series of one component."""
        out = []
        for s in self.samples:
            parts = s.components.get(name, {})
            out.append(parts.get("static_w", 0.0)
                       + parts.get("dynamic_w", 0.0))
        return out

    def component_names(self) -> List[str]:
        """Component names present in the samples (stable order)."""
        names: List[str] = []
        for s in self.samples:
            for name in s.components:
                if name not in names:
                    names.append(name)
        return names

    def total_activity(self) -> ActivityReport:
        """Reconstruct the aggregate activity from the windows.

        Bit-identical to the untraced aggregate report for a complete
        trace (see :func:`repro.telemetry.window.sum_windows`).
        """
        return sum_windows(self.windows, self.config)

    # -- rendering / export ---------------------------------------------------

    def sparkline(self, width: int = 60) -> str:
        """One-line ASCII rendering of card power over time."""
        from .export import sparkline
        return sparkline(self.card_watts(), width=width)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "gpu": self.config.name,
            "config": self.config.to_dict(),
            "interval_cycles": self.interval_cycles,
            "windows": windows_to_dicts(self.windows),
            "samples": [s.to_dict() for s in self.samples],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PowerTrace":
        return cls(
            kernel=data["kernel"],
            config=GPUConfig.from_dict(data["config"]),
            interval_cycles=float(data["interval_cycles"]),
            windows=windows_from_dicts(data.get("windows", [])),
            samples=[PowerSample.from_dict(s)
                     for s in data.get("samples", [])],
        )
