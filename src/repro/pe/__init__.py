"""Processing elements: the INT8 MAC datapath inside every PIM module."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".mac": (
            "MacUnit",
            "int8_mac",
            "requantize",
            "saturate_int8",
            "saturate_int32",
        ),
        ".pe": ("PeStats", "ProcessingElement"),
    },
)
