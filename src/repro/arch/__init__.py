"""Architecture specifications and processor assembly.

:mod:`repro.arch.specs` defines :class:`ArchitectureSpec` and the four
Table I presets (Baseline-, Heterogeneous-, Hybrid- and HH-PIM);
:mod:`repro.arch.processor` assembles a full processor — RISC-V core, NoC,
instruction queue, controllers and clusters — around any spec.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".specs": (
            "ArchitectureSpec",
            "ClusterSpec",
            "BASELINE_PIM",
            "HETEROGENEOUS_PIM",
            "HYBRID_PIM",
            "HH_PIM",
            "TABLE_I",
        ),
        ".processor": ("PimFabric", "Processor"),
    },
)
