"""One PIM module: PE + hybrid memory + module interface.

The module implements the paper's LOAD-state operand synchronisation: a
computation may pull a *variable* number of operands from MRAM and SRAM,
and the interface waits for the slower stream before handing the operand
set to the PE.  Two execution styles are offered:

* a **functional** path (:meth:`PIMModule.compute_dot`) that moves real
  INT8 bytes through the banks and the MAC datapath — used by correctness
  tests;
* a **fast accounting** path (:meth:`PIMModule.run_macs`) that charges the
  identical latency/energy for a whole batch of MACs without touching
  data — used by the cycle engine when sweeping 50-time-slice scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import ConfigurationError
from ..memory.bank import BankStats
from ..memory.hybrid import BankKind, HybridMemory
from ..memory.technology import HP_VDD, LP_VDD
from ..pe.pe import ProcessingElement


class ModuleKind(str, Enum):
    """High-performance (1.2 V) or low-power (0.8 V) module flavour."""

    HP = "hp"
    LP = "lp"

    @property
    def vdd(self) -> float:
        """Supply voltage of this module flavour."""
        return HP_VDD if self is ModuleKind.HP else LP_VDD


@dataclass(frozen=True)
class ModuleEnergy:
    """Energy snapshot of one module, split by component (nJ)."""

    memory_dynamic_nj: float
    memory_static_nj: float
    pe_dynamic_nj: float
    pe_static_nj: float

    @property
    def total_nj(self) -> float:
        """All components summed."""
        return (
            self.memory_dynamic_nj
            + self.memory_static_nj
            + self.pe_dynamic_nj
            + self.pe_static_nj
        )


class PIMModule:
    """PE + hybrid MRAM/SRAM memory behind a module interface."""

    def __init__(
        self,
        name: str,
        kind: ModuleKind,
        mram_capacity: int = 64 * 1024,
        sram_capacity: int = 64 * 1024,
    ) -> None:
        self.name = name
        self.kind = kind
        self.memory = HybridMemory(
            name=name,
            vdd=kind.vdd,
            mram_capacity=mram_capacity,
            sram_capacity=sram_capacity,
        )
        self.pe = ProcessingElement(name=f"{name}.pe", vdd=kind.vdd)
        #: Wall-clock time this module has spent busy (ns).
        self.busy_time_ns = 0.0

    # -- characteristics -----------------------------------------------------

    def read_latency_ns(self, bank: BankKind) -> float:
        """Read latency of one of the module's banks."""
        return self.memory.bank(bank).read_latency_ns

    def mac_time_ns(self, weight_bank: BankKind) -> float:
        """Time of one MAC with the weight held in ``weight_bank``.

        Per MAC the interface fetches the weight from ``weight_bank`` and
        the activation from the SRAM buffer; the two fetches proceed in
        parallel streams and the PE starts after the slower one, then the
        next fetch is issued — so the per-MAC period is
        ``max(weight_read, activation_read) + pe_mac``.
        """
        weight_read = self.read_latency_ns(weight_bank)
        activation_read = self.read_latency_ns(BankKind.SRAM)
        return max(weight_read, activation_read) + self.pe.mac_latency_ns

    def mac_dynamic_energy_nj(self, weight_bank: BankKind) -> float:
        """Dynamic energy of one MAC with the weight in ``weight_bank``."""
        weight_bank_obj = self.memory.bank(weight_bank)
        sram = self.memory.bank(BankKind.SRAM)
        return (
            weight_bank_obj.read_energy_nj
            + sram.read_energy_nj
            + self.pe.mac_energy_nj
        )

    # -- functional path --------------------------------------------------------------

    def write_weights(self, bank: BankKind, offset: int, weights: bytes) -> float:
        """Place weight bytes in a bank; returns the elapsed time (ns)."""
        elapsed = self.memory.bank(bank).write(offset, weights)
        self.busy_time_ns += elapsed
        return elapsed

    def write_activations(self, offset: int, activations: bytes) -> float:
        """Place activation bytes in the SRAM buffer; returns elapsed ns."""
        elapsed = self.memory.bank(BankKind.SRAM).write(offset, activations)
        self.busy_time_ns += elapsed
        return elapsed

    def compute_dot(
        self,
        weight_bank: BankKind,
        weight_offset: int,
        activation_offset: int,
        length: int,
    ) -> tuple:
        """Functional dot product over ``length`` INT8 operand pairs.

        Weights stream from ``weight_bank`` and activations from the SRAM
        buffer.  Returns ``(accumulator_value, elapsed_ns)``; latency and
        energy are charged access-by-access, matching :meth:`mac_time_ns`.
        """
        if length <= 0:
            raise ConfigurationError("dot-product length must be positive")
        bank = self.memory.bank(weight_bank)
        sram = self.memory.bank(BankKind.SRAM)
        self.pe.mac.clear()
        elapsed = 0.0
        for i in range(length):
            raw_w = bank.read(weight_offset + i, 1)[0]
            raw_a = sram.read(activation_offset + i, 1)[0]
            weight = raw_w - 256 if raw_w >= 128 else raw_w
            activation = raw_a - 256 if raw_a >= 128 else raw_a
            self.pe.execute_mac(weight, activation)
            # Parallel fetch streams: the slower read hides the faster one.
            fetch = max(bank.read_latency_ns, sram.read_latency_ns)
            elapsed += fetch + self.pe.mac_latency_ns
        self.busy_time_ns += elapsed
        return self.pe.mac.accumulator, elapsed

    # -- fast accounting path ------------------------------------------------------------

    def run_macs(self, count: int, weight_bank: BankKind) -> float:
        """Charge time/energy for ``count`` MACs (no functional data).

        Accounts one weight read (from ``weight_bank``), one activation
        read (SRAM) and one PE operation per MAC; returns elapsed ns.
        """
        if count < 0:
            raise ConfigurationError("MAC count must be non-negative")
        if count == 0:
            return 0.0
        # One weight fetch plus one activation fetch (SRAM buffer) per MAC;
        # when weights live in SRAM the buffer simply absorbs both streams.
        self.memory.bank(weight_bank).charge_accesses(reads=count)
        self.memory.bank(BankKind.SRAM).charge_accesses(reads=count)
        self.pe.charge_macs(count)
        elapsed = count * self.mac_time_ns(weight_bank)
        self.busy_time_ns += elapsed
        return elapsed

    # -- power management --------------------------------------------------------------

    def gate(self, target: str) -> None:
        """Power-gate a component: ``"mram"``, ``"sram"``, ``"pe"`` or ``"all"``."""
        if target in ("mram", "all") and BankKind.MRAM in self.memory.banks:
            self.memory.power_off(BankKind.MRAM)
        if target in ("sram", "all") and BankKind.SRAM in self.memory.banks:
            self.memory.power_off(BankKind.SRAM)
        if target in ("pe", "all"):
            self.pe.power_off()
        if target not in ("mram", "sram", "pe", "all"):
            raise ConfigurationError(f"unknown gate target {target!r}")

    def ungate(self, target: str) -> None:
        """Un-gate a component (same targets as :meth:`gate`)."""
        if target in ("mram", "all") and BankKind.MRAM in self.memory.banks:
            self.memory.power_on(BankKind.MRAM)
        if target in ("sram", "all") and BankKind.SRAM in self.memory.banks:
            self.memory.power_on(BankKind.SRAM)
        if target in ("pe", "all"):
            self.pe.power_on()
        if target not in ("mram", "sram", "pe", "all"):
            raise ConfigurationError(f"unknown gate target {target!r}")

    def account_idle(self, duration_ns: float) -> None:
        """Charge idle time on the memory banks and the PE."""
        self.memory.account_idle(duration_ns)
        self.pe.account_idle(duration_ns)

    # -- reporting ---------------------------------------------------------------------

    def memory_stats(self) -> BankStats:
        """Merged statistics of the module's banks."""
        return self.memory.stats()

    def energy(self) -> ModuleEnergy:
        """Energy snapshot, split by component."""
        mem = self.memory.stats()
        return ModuleEnergy(
            memory_dynamic_nj=mem.dynamic_energy_nj,
            memory_static_nj=mem.static_energy_nj,
            pe_dynamic_nj=self.pe.stats.dynamic_energy_nj,
            pe_static_nj=self.pe.stats.static_energy_nj,
        )

    def reset_stats(self) -> None:
        """Zero all statistics (contents and power states are untouched)."""
        self.memory.reset_stats()
        self.pe.reset_stats()
        self.busy_time_ns = 0.0
