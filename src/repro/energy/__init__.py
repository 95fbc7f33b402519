"""Energy: the Table V power model and component-level accounting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".power": ("PowerRow", "power_row", "table_v_rows"),
        ".accounting": ("EnergyAccount",),
    },
)
