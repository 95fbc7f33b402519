"""FPGA resource estimation (Table II)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".resources": (
            "ResourceReport",
            "Resources",
            "estimate_processor",
            "table_ii_report",
        ),
    },
)
