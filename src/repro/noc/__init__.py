"""Interconnect substrate: AXI-style bursts and a lightweight NoC.

The paper's processor connects the Rocket core to HH-PIM over AXI and uses
µNoC, a lightweight edge-oriented Network-on-Chip, as the system
interconnect.  This package models both at the timing level: AXI bursts
with per-beat bandwidth and fixed channel latency, and a routed mesh-like
NoC graph whose hop latency composes with the AXI endpoints.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".axi": ("AxiBus", "AxiTransaction", "BurstType"),
        ".unoc": ("MicroNoc", "NocLink", "NocNode"),
    },
)
