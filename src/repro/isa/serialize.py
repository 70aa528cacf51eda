"""JSON-safe serialization of kernels and launches.

The service layer (:mod:`repro.service`) accepts kernel submissions
over HTTP, and :class:`~repro.request.SimRequest` round-trips through
:mod:`repro.serialize` -- both need the ISA types as plain dicts.  The
encoding is exact: instruction fields (including the dynamically
attached ``sel_pred`` of SELP and the CFG-derived ``reconv_pc``) are
preserved verbatim, and memory images ship as float64 value lists,
which JSON round-trips bit-identically in Python (repr-based floats).

The kernel encoding is also the kernel's one identity:
:func:`kernel_digest` hashes it, and the runner's cache key, the lint
memo and the surrogate's memos all key on that digest.  Every
instruction field the simulator or the analyzer reads is in the
encoding, so two kernels differing anywhere -- a BRA's ``reconv_pc``
included -- never share a digest, and a decoded kernel digests exactly
like the original.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .instructions import Imm, Instruction, Operand, Pred, Reg, Sreg
from .kernel import Kernel
from .launch import Dim3, KernelLaunch


def _operand_to_dict(operand: Union[Reg, Pred, Imm, Sreg]
                     ) -> Dict[str, Any]:
    if isinstance(operand, Reg):
        return {"reg": operand.index}
    if isinstance(operand, Pred):
        return {"pred": operand.index}
    if isinstance(operand, Imm):
        return {"imm": operand.value}
    if isinstance(operand, Sreg):
        return {"sreg": operand.name}
    raise TypeError(f"cannot serialise operand {operand!r}")


def _operand_from_dict(data: Dict[str, Any]) -> Union[Reg, Pred, Imm, Sreg]:
    if len(data) != 1:
        raise ValueError(f"malformed operand {data!r}")
    kind, value = next(iter(data.items()))
    if kind == "reg":
        return Reg(int(value))
    if kind == "pred":
        return Pred(int(value))
    if kind == "imm":
        return Imm(float(value))
    if kind == "sreg":
        return Sreg(str(value))
    raise ValueError(f"unknown operand kind {kind!r}")


#: What ``Instruction.__post_init__`` fills in for an unset
#: ``mem_space``; the encoding only records deviations from it.
_DEFAULT_MEM_SPACE = {"LDG": "global", "STG": "global", "LDS": "shared",
                      "STS": "shared", "LDC": "const", "LDT": "texture"}


def instruction_to_dict(inst: Instruction) -> Dict[str, Any]:
    """One instruction as a plain dict (sparse: defaults are omitted)."""
    out: Dict[str, Any] = {"op": inst.op}
    if inst.dst is not None:
        out["dst"] = _operand_to_dict(inst.dst)
    if inst.srcs:
        out["srcs"] = [_operand_to_dict(s) for s in inst.srcs]
    if inst.guard is not None:
        pred, sense = inst.guard
        out["guard"] = [pred.index, bool(sense)]
    if inst.target is not None:
        out["target"] = inst.target
    if inst.reconv_pc is not None:
        out["reconv_pc"] = inst.reconv_pc
    default_space = _DEFAULT_MEM_SPACE.get(inst.op)
    if inst.mem_space != default_space:
        out["mem_space"] = inst.mem_space
    if inst.offset:
        out["offset"] = inst.offset
    sel_pred = getattr(inst, "sel_pred", None)
    if sel_pred is not None:
        out["sel_pred"] = sel_pred.index
    return out


def instruction_from_dict(data: Dict[str, Any]) -> Instruction:
    """Rebuild an :class:`Instruction` from :func:`instruction_to_dict`."""
    known = {"op", "dst", "srcs", "guard", "target", "reconv_pc",
             "mem_space", "offset", "sel_pred"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown instruction fields: {sorted(unknown)}")
    dst: Optional[Union[Reg, Pred]] = None
    if "dst" in data:
        decoded = _operand_from_dict(data["dst"])
        if not isinstance(decoded, (Reg, Pred)):
            raise ValueError(f"invalid destination {data['dst']!r}")
        dst = decoded
    srcs: List[Operand] = []
    for raw in data.get("srcs", []):
        operand = _operand_from_dict(raw)
        if isinstance(operand, Pred):
            raise ValueError("predicate registers are not data operands")
        srcs.append(operand)
    guard = None
    if "guard" in data:
        index, sense = data["guard"]
        guard = (Pred(int(index)), bool(sense))
    inst = Instruction(
        op=str(data["op"]),
        dst=dst,
        srcs=tuple(srcs),
        guard=guard,
        target=(None if data.get("target") is None
                else int(data["target"])),
        reconv_pc=(None if data.get("reconv_pc") is None
                   else int(data["reconv_pc"])),
        mem_space=data.get("mem_space"),
        offset=int(data.get("offset", 0)),
    )
    if "sel_pred" in data:
        sel = Pred(int(data["sel_pred"]))
        inst.sel_pred = sel  # type: ignore[attr-defined]
    return inst


def kernel_to_dict(kernel: Kernel) -> Dict[str, Any]:
    """An assembled kernel as a plain dict."""
    return {
        "name": kernel.name,
        "instructions": [instruction_to_dict(i)
                         for i in kernel.instructions],
        "n_regs": kernel.n_regs,
        "n_preds": kernel.n_preds,
        "smem_words": kernel.smem_words,
    }


def kernel_digest(kernel: Kernel) -> str:
    """SHA-256 of the canonical JSON of :func:`kernel_to_dict`.

    Computed once per kernel object and cached on it: a ``Kernel`` is
    frozen, and ``sel_pred`` is attached to its SELPs before the kernel
    is built or decoded, so the encoding cannot change afterwards.  A
    launch rebuilt with :func:`dataclasses.replace` shares its kernel
    and so its digest.
    """
    cached = kernel.__dict__.get("_digest")
    if cached is None:
        blob = json.dumps(kernel_to_dict(kernel), sort_keys=True,
                          separators=(",", ":"))
        cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        object.__setattr__(kernel, "_digest", cached)
    return cached


def kernel_from_dict(data: Dict[str, Any]) -> Kernel:
    """Rebuild a :class:`Kernel` from :func:`kernel_to_dict` output."""
    return Kernel(
        name=str(data["name"]),
        instructions=tuple(instruction_from_dict(i)
                           for i in data["instructions"]),
        n_regs=int(data["n_regs"]),
        n_preds=int(data["n_preds"]),
        smem_words=int(data.get("smem_words", 0)),
    )


def _dim3_to_list(dim: Dim3) -> List[int]:
    return [dim.x, dim.y, dim.z]


def _dim3_from_list(data: Any) -> Dim3:
    x, y, z = (int(v) for v in data)
    return Dim3(x, y, z)


def _array_to_list(arr: np.ndarray) -> List[float]:
    return [float(v) for v in np.asarray(arr, dtype=np.float64)]


def launch_to_dict(launch: KernelLaunch) -> Dict[str, Any]:
    """A launch descriptor as a plain dict (exact float64 payloads)."""
    return {
        "kernel": kernel_to_dict(launch.kernel),
        "grid": _dim3_to_list(launch.grid),
        "block": _dim3_to_list(launch.block),
        "globals_init": {str(off): _array_to_list(arr)
                         for off, arr in sorted(launch.globals_init.items())},
        "const_init": (None if launch.const_init is None
                       else _array_to_list(launch.const_init)),
        "gmem_words": launch.gmem_words,
        "params": dict(launch.params),
        "repeat": launch.repeat,
        "repeatable": launch.repeatable,
    }


def launch_from_dict(data: Dict[str, Any]) -> KernelLaunch:
    """Rebuild a :class:`KernelLaunch` from :func:`launch_to_dict`."""
    known = {"kernel", "grid", "block", "globals_init", "const_init",
             "gmem_words", "params", "repeat", "repeatable"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown launch fields: {sorted(unknown)}")
    const_init = data.get("const_init")
    return KernelLaunch(
        kernel=kernel_from_dict(data["kernel"]),
        grid=_dim3_from_list(data["grid"]),
        block=_dim3_from_list(data["block"]),
        globals_init={int(off): np.asarray(values, dtype=np.float64)
                      for off, values in data.get("globals_init",
                                                  {}).items()},
        const_init=(None if const_init is None
                    else np.asarray(const_init, dtype=np.float64)),
        gmem_words=int(data.get("gmem_words", 1 << 16)),
        params=dict(data.get("params", {})),
        repeat=int(data.get("repeat", 1)),
        repeatable=bool(data.get("repeatable", True)),
    )
