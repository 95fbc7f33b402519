"""Functional, power-gatable memory bank model.

A :class:`MemoryBank` is the unit the PIM module and the placement runtime
reason about: it stores real bytes (so functional tests can verify data
round-trips), charges the Table III latency and Table V power for every
access, and supports power gating.  Gating a volatile bank (SRAM) clears
its contents; gating a non-volatile bank (STT-MRAM) retains them — this is
the asymmetry the HH-PIM placement algorithm exploits.

The contents are allocated on the first write: a bank that was never
written (every bank of a priced-only cluster) reads as zeros and holds,
and pickles, no buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..errors import AddressError, ConfigurationError, PowerGatingError
from .nvsim import NvSimModel, NvSimResult
from .technology import MemoryTechnology


@dataclass
class BankStats:
    """Access and energy statistics accumulated by a bank."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    dynamic_energy_nj: float = 0.0
    static_energy_nj: float = 0.0
    powered_time_ns: float = 0.0
    gated_time_ns: float = 0.0

    @property
    def total_energy_nj(self) -> float:
        """Dynamic plus static energy, in nanojoules."""
        return self.dynamic_energy_nj + self.static_energy_nj

    def merge(self, other: "BankStats") -> "BankStats":
        """Return the element-wise sum of two stat records."""
        return BankStats(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            dynamic_energy_nj=self.dynamic_energy_nj + other.dynamic_energy_nj,
            static_energy_nj=self.static_energy_nj + other.static_energy_nj,
            powered_time_ns=self.powered_time_ns + other.powered_time_ns,
            gated_time_ns=self.gated_time_ns + other.gated_time_ns,
        )


@dataclass
class MemoryBank:
    """One memory macro: addressable bytes plus latency/energy accounting.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"hp0.mram"``).
    technology:
        The cell technology; decides volatility under power gating.
    capacity_bytes:
        Macro capacity.  Accesses beyond it raise :class:`AddressError`.
    vdd:
        Supply voltage; timing/power are derived through the NVSim-style
        estimator so a bank built at (64 kB, 1.2 V) reproduces Table III
        and Table V exactly.
    word_bytes:
        Access granularity.  Each :meth:`read`/:meth:`write` call moves one
        word and charges one access latency/energy, matching the per-access
        numbers of the paper's tables.
    """

    name: str
    technology: MemoryTechnology
    capacity_bytes: int
    vdd: float
    word_bytes: int = 1

    #: Contents; ``None`` until the first write (reads as zeros).
    _data: bytearray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _powered: bool = field(default=True, init=False)
    stats: BankStats = field(default_factory=BankStats, init=False)
    _estimate: NvSimResult = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"bank {self.name}: capacity must be positive, got "
                f"{self.capacity_bytes}"
            )
        if self.word_bytes <= 0 or self.capacity_bytes % self.word_bytes != 0:
            raise ConfigurationError(
                f"bank {self.name}: word size {self.word_bytes} must divide "
                f"capacity {self.capacity_bytes}"
            )
        self._estimate = NvSimModel(self.technology).estimate(
            self.capacity_bytes, self.vdd
        )

    # -- derived characteristics -------------------------------------------------

    @property
    def read_latency_ns(self) -> float:
        """Latency of one read access (ns)."""
        return self._estimate.timing.read_ns

    @property
    def write_latency_ns(self) -> float:
        """Latency of one write access (ns)."""
        return self._estimate.timing.write_ns

    @property
    def read_energy_nj(self) -> float:
        """Dynamic energy of one read access (nJ)."""
        return self._estimate.read_energy_nj

    @property
    def write_energy_nj(self) -> float:
        """Dynamic energy of one write access (nJ)."""
        return self._estimate.write_energy_nj

    @property
    def static_power_mw(self) -> float:
        """Leakage power while powered on (mW)."""
        return self._estimate.power.static_mw

    @property
    def words(self) -> int:
        """Number of addressable words."""
        return self.capacity_bytes // self.word_bytes

    @property
    def powered(self) -> bool:
        """Whether the bank is currently powered on."""
        return self._powered

    @property
    def volatile(self) -> bool:
        """Whether power gating destroys the bank's contents."""
        return self.technology.volatile

    # -- power management ----------------------------------------------------------

    def power_off(self) -> None:
        """Gate the bank.  Volatile banks lose their contents."""
        if self._powered and self.volatile:
            self._data = None
        self._powered = False

    def power_on(self) -> None:
        """Un-gate the bank (wake-up latency is folded into access time)."""
        self._powered = True

    def account_idle(self, duration_ns: float) -> None:
        """Charge ``duration_ns`` of idle time at the current power state."""
        if duration_ns < 0:
            raise ConfigurationError("idle duration must be non-negative")
        if self._powered:
            self.stats.powered_time_ns += duration_ns
            self.stats.static_energy_nj += self.static_power_mw * duration_ns / 1000.0
        else:
            self.stats.gated_time_ns += duration_ns

    # -- functional accesses ---------------------------------------------------------

    def _check_access(self, address: int, length: int) -> None:
        if not self._powered:
            raise PowerGatingError(
                f"bank {self.name}: access while power-gated"
            )
        if address < 0 or address + length > self.capacity_bytes:
            raise AddressError(
                f"bank {self.name}: access [{address}, {address + length}) "
                f"outside capacity {self.capacity_bytes}"
            )

    def read(self, address: int, length: int | None = None) -> bytes:
        """Read ``length`` bytes (default: one word) starting at ``address``.

        Charges one read access per word touched and returns the data.
        """
        length = self.word_bytes if length is None else length
        self._check_access(address, length)
        accesses = max(1, -(-length // self.word_bytes))
        self.stats.reads += accesses
        self.stats.bytes_read += length
        elapsed = accesses * self.read_latency_ns
        self.stats.dynamic_energy_nj += accesses * self.read_energy_nj
        self.stats.powered_time_ns += elapsed
        self.stats.static_energy_nj += self.static_power_mw * elapsed / 1000.0
        return self._bytes(address, length)

    def write(self, address: int, data: bytes) -> float:
        """Write ``data`` at ``address``; returns the elapsed time in ns."""
        self._check_access(address, len(data))
        accesses = max(1, -(-len(data) // self.word_bytes))
        if self._data is None:
            self._data = bytearray(self.capacity_bytes)
        self._data[address : address + len(data)] = data
        self.stats.writes += accesses
        self.stats.bytes_written += len(data)
        elapsed = accesses * self.write_latency_ns
        self.stats.dynamic_energy_nj += accesses * self.write_energy_nj
        self.stats.powered_time_ns += elapsed
        self.stats.static_energy_nj += self.static_power_mw * elapsed / 1000.0
        return elapsed

    def charge_accesses(self, reads: int = 0, writes: int = 0) -> float:
        """Charge time/energy for bulk accesses without moving data.

        The cycle engine uses this fast path when simulating whole layers
        whose functional behaviour is validated elsewhere.  Returns the
        elapsed time in nanoseconds (reads and writes serialise on the
        bank's single port).
        """
        if reads < 0 or writes < 0:
            raise ConfigurationError("access counts must be non-negative")
        if (reads or writes) and not self._powered:
            raise PowerGatingError(f"bank {self.name}: access while power-gated")
        self.stats.reads += reads
        self.stats.writes += writes
        self.stats.bytes_read += reads * self.word_bytes
        self.stats.bytes_written += writes * self.word_bytes
        elapsed = reads * self.read_latency_ns + writes * self.write_latency_ns
        self.stats.dynamic_energy_nj += (
            reads * self.read_energy_nj + writes * self.write_energy_nj
        )
        self.stats.powered_time_ns += elapsed
        self.stats.static_energy_nj += self.static_power_mw * elapsed / 1000.0
        return elapsed

    def peek(self, address: int, length: int) -> bytes:
        """Read without charging latency/energy (testing/debug aid)."""
        if address < 0 or address + length > self.capacity_bytes:
            raise AddressError(
                f"bank {self.name}: peek [{address}, {address + length}) "
                f"outside capacity {self.capacity_bytes}"
            )
        return self._bytes(address, length)

    def _bytes(self, address: int, length: int) -> bytes:
        if self._data is None:
            return bytes(max(length, 0))
        return bytes(self._data[address : address + length])

    def __eq__(self, other) -> bool:
        """Field-wise equality; never-written contents equal zeros."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.compare
        ):
            return False
        mine, theirs = self._data, other._data
        if mine is None or theirs is None:
            written = theirs if mine is None else mine
            return written is None or written.count(0) == len(written)
        return mine == theirs

    def reset_stats(self) -> None:
        """Zero the accumulated statistics (contents are untouched)."""
        self.stats = BankStats()
