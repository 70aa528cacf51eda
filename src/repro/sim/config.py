"""GPU architecture configuration.

The paper: "the key parameters of the simulated architecture are supplied
using a simple XML-based interface.  For example, GPUSimPow is able to
coherently simulate an architecture with a varied number of cores."

:class:`GPUConfig` is that interface.  Presets :func:`gt240` and
:func:`gtx580` reproduce the two evaluation platforms of Table II
(GT215 chip on a GeForce GT240; GF110 chip on a GeForce GTX580).
XML round-tripping is provided for compatibility with the paper's
workflow.
"""

from __future__ import annotations

import copy
import dataclasses
import operator
import pickle
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Callable, Dict, TypeVar

from ..serialize import (Serializable, keyword_only, scalar_fields_from_dict,
                         scalar_fields_to_dict)


@keyword_only
@dataclass
class GPUConfig(Serializable):
    """Every architectural parameter the simulator and power model use.

    Clocks are in hertz; sizes in bytes unless the name says otherwise.
    Construction is keyword-only: with ~70 tuning knobs, positional
    arguments would silently rebind as fields are added or reordered.
    """

    name: str = "custom"
    process_nm: float = 40.0
    #: Process-corner / binning multiplier on empirically anchored
    #: leakage.  Enthusiast parts (GF110) ship on a hotter, leakier
    #: corner than mainstream ones (GT215); McPAT exposes the same
    #: choice through its device-type parameter.
    leakage_bin: float = 1.0

    # -- chip organisation ---------------------------------------------------
    n_clusters: int = 4
    cores_per_cluster: int = 3

    # -- clock domains --------------------------------------------------------
    uncore_clock_hz: float = 550e6
    shader_to_uncore: float = 2.47
    dram_clock_hz: float = 900e6  # command clock; data rate is 4x for GDDR5

    # -- SIMT core ------------------------------------------------------------
    warp_size: int = 32
    max_warps_per_core: int = 24
    max_blocks_per_core: int = 8
    max_threads_per_core: int = 768
    n_int_lanes: int = 8
    n_fp_lanes: int = 8
    n_sfu: int = 2
    issue_width: int = 1
    fetch_width: int = 1
    #: Warp scheduling policy: "rr" (rotating priority, the paper's
    #: baseline), "gto" (greedy-then-oldest), or "two_level" (Narasiman
    #: et al., named in the paper's future-work list).
    warp_scheduler: str = "rr"
    scheduler_group_size: int = 8
    alu_latency_cycles: int = 18
    sfu_latency_cycles: int = 32
    branch_latency_cycles: int = 8
    smem_latency_cycles: int = 24

    # -- register file -------------------------------------------------------
    regfile_regs_per_core: int = 16384
    regfile_banks: int = 16
    operand_collectors: int = 6

    # -- warp control unit ----------------------------------------------------
    has_scoreboard: bool = False
    scoreboard_dst_per_warp: int = 2  # DstReg1/DstReg2 in Fig. 2
    ibuffer_slots_per_warp: int = 2
    icache_size: int = 8 * 1024
    icache_line: int = 64
    icache_assoc: int = 4

    # -- LDST unit ------------------------------------------------------------
    sub_agu_width: int = 8            # addresses per sub-AGU per cycle
    coalescing_enabled: bool = True   # False: one transaction per address
    coalesce_segment_bytes: int = 128
    coalescer_pending_entries: int = 8
    smem_size: int = 16 * 1024
    smem_banks: int = 16
    l1_size: int = 0                  # 0: no L1 data cache (GT200 style)
    l1_line: int = 128
    l1_assoc: int = 4
    l1_latency_shader_cycles: int = 28
    const_cache_size: int = 8 * 1024
    const_cache_line: int = 64
    const_cache_assoc: int = 4
    #: Texture cache per core; 0 disables the texture path (the paper's
    #: model does not yet include it -- "In a future variant of the
    #: model, the LDSTU will contain the texture caching subsystem").
    tex_cache_size: int = 0
    tex_cache_line: int = 64
    tex_cache_assoc: int = 8

    # -- uncore ---------------------------------------------------------------
    has_l2: bool = False
    l2_size: int = 0
    l2_line: int = 128
    l2_assoc: int = 8
    l2_latency_uncore_cycles: int = 40
    noc_flit_bytes: int = 32
    n_mem_partitions: int = 2
    dram_bus_bits_per_partition: int = 64

    # -- GDDR5 timing (in DRAM command-clock cycles) --------------------------
    dram_banks: int = 16
    dram_row_bytes: int = 2048
    dram_burst_bytes: int = 64
    dram_t_ccd: int = 2
    dram_t_rcd: int = 12
    dram_t_rp: int = 12
    dram_t_cas: int = 12
    dram_t_ras: int = 28
    dram_refresh_interval_us: float = 7.8
    dram_latency_ns: float = 80.0     # uncontended round-trip add-on

    # -- PCIe -----------------------------------------------------------------
    pcie_lanes: int = 16
    pcie_gen: int = 2

    def __post_init__(self) -> None:
        self.validate()

    # -- derived --------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        return self.n_clusters * self.cores_per_cluster

    @property
    def shader_clock_hz(self) -> float:
        return self.uncore_clock_hz * self.shader_to_uncore

    @property
    def warps_per_block(self) -> int:
        raise AttributeError("depends on launch; use launch geometry")

    @property
    def fu_cycles_per_warp(self) -> int:
        """Shader cycles one warp instruction occupies an execution lane
        group (e.g. 32-thread warp over 8 lanes -> 4 cycles)."""
        return max(1, self.warp_size // max(1, self.n_fp_lanes))

    @property
    def n_sub_agus(self) -> int:
        return max(1, self.warp_size // self.sub_agu_width)

    @property
    def dram_bandwidth_bytes_per_s(self) -> float:
        """Aggregate GDDR5 bandwidth (quad data rate)."""
        bits = self.dram_bus_bits_per_partition * self.n_mem_partitions
        return bits / 8 * self.dram_clock_hz * 4

    def validate(self) -> None:
        """Raise ValueError on inconsistent configurations."""
        if self.n_clusters < 1 or self.cores_per_cluster < 1:
            raise ValueError("need at least one cluster and core")
        if self.warp_size < 1 or self.warp_size & (self.warp_size - 1):
            raise ValueError("warp size must be a power of two")
        if self.max_warps_per_core < 1:
            raise ValueError("need at least one in-flight warp")
        if self.max_threads_per_core < self.warp_size:
            raise ValueError("core must hold at least one warp of threads")
        if self.n_fp_lanes < 1 or self.n_int_lanes < 1 or self.n_sfu < 1:
            raise ValueError("execution unit counts must be positive")
        if self.has_l2 and self.l2_size <= 0:
            raise ValueError("has_l2 requires a positive l2_size")
        if self.coalesce_segment_bytes not in (32, 64, 128, 256):
            raise ValueError("coalescing segment must be 32/64/128/256 bytes")
        if self.smem_banks < 1 or self.regfile_banks < 1:
            raise ValueError("bank counts must be positive")
        if self.warp_scheduler not in ("rr", "gto", "two_level"):
            raise ValueError(f"unknown warp scheduler {self.warp_scheduler!r}")
        if self.scheduler_group_size < 1:
            raise ValueError("scheduler group size must be positive")

    # -- XML interface --------------------------------------------------------

    def to_xml(self) -> str:
        """Serialise to the simple XML parameter format."""
        root = ET.Element("gpu_config", name=self.name)
        for f in dataclasses.fields(self):
            if f.name == "name":
                continue
            value = getattr(self, f.name)
            ET.SubElement(root, "param", name=f.name, value=repr(value))
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "GPUConfig":
        """Parse a configuration from its XML form."""
        root = ET.fromstring(text)
        if root.tag != "gpu_config":
            raise ValueError("not a gpu_config document")
        kwargs = {"name": root.get("name", "custom")}
        valid = {f.name: f for f in dataclasses.fields(cls)}
        for param in root.findall("param"):
            pname = param.get("name")
            if pname not in valid:
                raise ValueError(f"unknown parameter {pname!r}")
            raw = param.get("value")
            ftype = str(valid[pname].type)
            if "bool" in ftype:
                kwargs[pname] = raw == "True"
            elif "str" in ftype:
                kwargs[pname] = raw.strip("'\"")
            elif "int" in ftype:
                kwargs[pname] = int(raw)
            else:
                kwargs[pname] = float(raw)
        return cls(**kwargs)

    def scaled(self, **overrides) -> "GPUConfig":
        """Copy with parameter overrides (design-space exploration)."""
        return dataclasses.replace(self, **overrides)

    # -- dict/JSON interface (uniform result-object surface) ------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain dict of every parameter (stable field order)."""
        return scalar_fields_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GPUConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Missing parameters keep their defaults; unknown parameters raise
        ``ValueError``; the result passes :meth:`validate`.
        """
        return scalar_fields_from_dict(cls, data, label="config parameters")


def gt240() -> GPUConfig:
    """NVIDIA GeForce GT240 (GT215 chip, GT200/Tesla generation).

    Table II: 12 cores, 768 threads/core, 8 FUs/core, 550 MHz uncore,
    shader-to-uncore 2.47x, 24 in-flight warps, no scoreboard, no L2,
    40 nm.  Cores are grouped into 4 clusters (TPCs) of 3 (Fig. 4: "12
    cores distributed evenly over 4 core clusters").
    """
    return GPUConfig(
        name="GT240",
        process_nm=40.0,
        n_clusters=4,
        cores_per_cluster=3,
        uncore_clock_hz=550e6,
        shader_to_uncore=2.47,
        dram_clock_hz=850e6,
        warp_size=32,
        max_warps_per_core=24,
        max_blocks_per_core=8,
        max_threads_per_core=768,
        n_int_lanes=8,
        n_fp_lanes=8,
        n_sfu=2,
        issue_width=1,
        fetch_width=1,
        regfile_regs_per_core=16384,
        regfile_banks=16,
        operand_collectors=6,
        has_scoreboard=False,
        smem_size=16 * 1024,
        smem_banks=16,
        l1_size=0,
        has_l2=False,
        l2_size=0,
        n_mem_partitions=2,
        dram_bus_bits_per_partition=64,
        pcie_gen=2,
    )


def gtx580() -> GPUConfig:
    """NVIDIA GeForce GTX580 (GF110 chip, Fermi generation).

    Table II: 16 cores, 1536 threads/core, 32 FUs/core, 882 MHz uncore,
    shader-to-uncore 2x, 48 in-flight warps, scoreboard, 768 KB L2,
    40 nm.  16 SMs in 4 GPCs of 4.
    """
    return GPUConfig(
        name="GTX580",
        process_nm=40.0,
        leakage_bin=2.3,
        n_clusters=4,
        cores_per_cluster=4,
        uncore_clock_hz=882e6,
        shader_to_uncore=2.0,
        dram_clock_hz=1002e6,
        warp_size=32,
        max_warps_per_core=48,
        max_blocks_per_core=8,
        max_threads_per_core=1536,
        n_int_lanes=32,
        n_fp_lanes=32,
        n_sfu=4,
        issue_width=2,
        fetch_width=2,
        regfile_regs_per_core=32768,
        regfile_banks=16,
        operand_collectors=8,
        has_scoreboard=True,
        smem_size=48 * 1024,
        smem_banks=32,
        l1_size=16 * 1024,
        l1_assoc=4,
        has_l2=True,
        l2_size=768 * 1024,
        l2_assoc=8,
        n_mem_partitions=6,
        dram_bus_bits_per_partition=64,
        pcie_gen=2,
    )


# -- per-configuration memo ---------------------------------------------------

#: How many distinct configurations :func:`config_memo` holds before it
#: starts over (each may keep a ~14 KB power model).
CONFIG_MEMO_SIZE = 32

_T = TypeVar("_T")
_FIELD_VALUES = operator.attrgetter(
    *(f.name for f in dataclasses.fields(GPUConfig)))
_MEMO: Dict[bytes, Dict[str, Any]] = {}


def config_memo(config: GPUConfig, name: str,
                build: Callable[[GPUConfig], _T]) -> _T:
    """``build(config)``, computed once per configuration *content*.

    A :class:`GPUConfig` is mutable, so nothing is cached on the object:
    the memo is keyed by its field values, pickled so that ``1``,
    ``1.0`` and ``True`` (or ``0.0`` and ``-0.0``) stay apart exactly
    as their reprs -- and so the cache keys -- do.  A config changed
    after a call keys a different entry.  ``build`` gets a private
    copy, so what it returns never sees the caller's config change;
    equal configs share it, so treat it as read-only.  ``name`` tells
    the artifacts of one configuration apart.
    """
    key = pickle.dumps(_FIELD_VALUES(config), pickle.HIGHEST_PROTOCOL)
    slots = _MEMO.get(key)
    if slots is None:
        if len(_MEMO) >= CONFIG_MEMO_SIZE:
            _MEMO.clear()
        slots = _MEMO.setdefault(key, {})
    value = slots.get(name)
    if value is None:
        value = slots.setdefault(name, build(copy.copy(config)))
    return value


#: Registry of named preset configurations.
PRESETS = {"GT240": gt240, "GTX580": gtx580}


def preset(name: str) -> GPUConfig:
    """Look up a preset configuration by name (case-insensitive)."""
    key = name.upper()
    if key not in PRESETS:
        raise KeyError(f"unknown GPU preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[key]()
