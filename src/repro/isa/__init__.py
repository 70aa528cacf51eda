"""Mini SIMT ISA: instructions, kernels, launches, CFG analysis."""

from .instructions import (ALL_OPS, CTRL_OPS, FP_OPS, INT_OPS, MEM_OPS,
                           SFU_OPS, Imm, Instruction, Pred, Reg, Sreg,
                           unit_class)
from .kernel import Kernel, KernelBuilder
from . import lib
from .launch import Dim3, KernelLaunch
from .serialize import (instruction_from_dict, instruction_to_dict,
                        kernel_digest, kernel_from_dict, kernel_to_dict,
                        launch_from_dict, launch_to_dict)

__all__ = [
    "ALL_OPS", "CTRL_OPS", "FP_OPS", "INT_OPS", "MEM_OPS", "SFU_OPS",
    "Imm", "Instruction", "Pred", "Reg", "Sreg", "unit_class",
    "Kernel", "KernelBuilder", "Dim3", "KernelLaunch", "lib",
    "instruction_to_dict", "instruction_from_dict",
    "kernel_to_dict", "kernel_from_dict", "kernel_digest",
    "launch_to_dict", "launch_from_dict",
]
