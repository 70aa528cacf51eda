"""Mini SIMT ISA: instructions, kernels, launches, CFG analysis."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".instructions": ("ALL_OPS", "CTRL_OPS", "FP_OPS", "INT_OPS", "MEM_OPS",
                      "SFU_OPS", "Imm", "Instruction", "Pred", "Reg", "Sreg",
                      "unit_class"),
    ".kernel": ("Kernel", "KernelBuilder"),
    ".launch": ("Dim3", "KernelLaunch"),
    ".serialize": ("instruction_from_dict", "instruction_to_dict",
                   "kernel_digest", "kernel_from_dict", "kernel_to_dict",
                   "launch_from_dict", "launch_to_dict"),
}, submodules=("lib",))
