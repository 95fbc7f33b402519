"""Memory subsystem: technology models, NVSim-style estimation, banks.

The paper obtains its memory latency (Table III) and power (Table V)
numbers from NVSim at a 45 nm node, evaluating SRAM and STT-MRAM macros at
1.2 V (HP cluster) and 0.8 V (LP cluster).  This package provides:

* :mod:`repro.memory.technology` — voltage-parameterised technology models
  for SRAM and STT-MRAM, calibrated so that the published operating points
  are reproduced exactly;
* :mod:`repro.memory.nvsim` — an NVSim-style analytical estimator that maps
  (technology, capacity, voltage) to access timing and power;
* :mod:`repro.memory.bank` — a functional, power-gatable memory bank that
  stores bytes and accounts for every access's latency and energy;
* :mod:`repro.memory.hybrid` — the MRAM + SRAM hybrid memory inside each
  PIM module.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".technology": (
            "MemoryTechnology",
            "PeTechnology",
            "SRAM_45NM",
            "STT_MRAM_45NM",
            "PE_45NM",
            "HP_VDD",
            "LP_VDD",
        ),
        ".nvsim": ("AccessTiming", "AccessPower", "NvSimModel", "estimate"),
        ".bank": ("BankStats", "MemoryBank"),
        ".hybrid": ("HybridMemory",),
    },
)
