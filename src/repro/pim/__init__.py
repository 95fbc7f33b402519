"""PIM modules and clusters.

A *PIM module* couples a processing element with a hybrid MRAM+SRAM memory
behind a module interface (Fig. 1).  Modules of the same kind are grouped
into a *cluster* — HH-PIM has one High-Performance cluster at 1.2 V and one
Low-Power cluster at 0.8 V, four modules each (Table I).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".module": ("ModuleKind", "PIMModule"),
        ".cluster": ("PIMCluster",),
    },
)
