"""Architecture specifications.

:mod:`repro.arch.specs` defines :class:`ArchitectureSpec` and the four
Table I presets (Baseline-, Heterogeneous-, Hybrid- and HH-PIM).
:class:`~repro.core.placement.DataPlacementOptimizer` builds a spec's
PIM clusters.
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
    },
)
