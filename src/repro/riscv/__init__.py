"""RISC-V substrate: a functional RV32IM ISS with an MMIO PIM bridge.

The paper's processor is built around a single RISC-V Rocket core that
issues dedicated PIM instructions to the HH-PIM fabric.  We reproduce the
command path with a compact functional RV32IM instruction-set simulator:
driver kernels (assembled by :mod:`repro.riscv.program`) store PIM
instruction words to a memory-mapped doorbell, and the MMIO bridge pushes
them into the PIM Instruction Queue exactly as the AXI slave port would.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".isa": ("Decoded", "InstrFormat", "decode"),
        ".cpu": ("Cpu", "CpuState"),
        ".mmio": ("MmioBus", "MmioRegion", "PimMmioBridge", "RamRegion"),
        ".program": ("Program", "asm"),
    },
)
