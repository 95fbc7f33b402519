"""Unit tests for the memory subsystem (technology, nvsim, bank, hybrid)."""

import math
import pickle

import pytest

from repro.errors import (
    AddressError,
    ConfigurationError,
    PowerGatingError,
)
from repro.memory import (
    AccessTiming,
    HybridMemory,
    MemoryBank,
    NvSimModel,
    PE_45NM,
    SRAM_45NM,
    STT_MRAM_45NM,
    estimate,
)
from repro.memory.hybrid import BankKind
from repro.memory.technology import HP_VDD, LP_VDD, V_TH


class TestTechnologyCalibration:
    """The fitted laws must reproduce Tables III and V bit-exactly."""

    @pytest.mark.parametrize("vdd,read,write", [(1.2, 1.12, 1.12), (0.8, 1.41, 1.41)])
    def test_sram_latency(self, vdd, read, write):
        assert SRAM_45NM.read_latency(vdd) == pytest.approx(read, abs=1e-9)
        assert SRAM_45NM.write_latency(vdd) == pytest.approx(write, abs=1e-9)

    @pytest.mark.parametrize("vdd,read,write", [(1.2, 2.62, 11.81), (0.8, 2.96, 14.65)])
    def test_mram_latency(self, vdd, read, write):
        assert STT_MRAM_45NM.read_latency(vdd) == pytest.approx(read, abs=1e-9)
        assert STT_MRAM_45NM.write_latency(vdd) == pytest.approx(write, abs=1e-9)

    @pytest.mark.parametrize("vdd,value", [(1.2, 5.52), (0.8, 10.68)])
    def test_pe_latency(self, vdd, value):
        assert PE_45NM.mac_latency(vdd) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize(
        "vdd,read,write,static",
        [(1.2, 508.93, 500.0, 23.29), (0.8, 177.3, 177.3, 5.45)],
    )
    def test_sram_power(self, vdd, read, write, static):
        assert SRAM_45NM.read_power(vdd) == pytest.approx(read, abs=1e-6)
        assert SRAM_45NM.write_power(vdd) == pytest.approx(write, abs=1e-6)
        assert SRAM_45NM.static_power(vdd) == pytest.approx(static, abs=1e-6)

    @pytest.mark.parametrize(
        "vdd,read,write,static",
        [(1.2, 428.48, 133.78, 2.98), (0.8, 179.05, 47.78, 0.84)],
    )
    def test_mram_power(self, vdd, read, write, static):
        assert STT_MRAM_45NM.read_power(vdd) == pytest.approx(read, abs=1e-6)
        assert STT_MRAM_45NM.write_power(vdd) == pytest.approx(write, abs=1e-6)
        assert STT_MRAM_45NM.static_power(vdd) == pytest.approx(static, abs=1e-6)

    @pytest.mark.parametrize("vdd,dyn,static", [(1.2, 0.9, 0.48), (0.8, 0.51, 0.25)])
    def test_pe_power(self, vdd, dyn, static):
        assert PE_45NM.dynamic_power(vdd) == pytest.approx(dyn, abs=1e-9)
        assert PE_45NM.static_power(vdd) == pytest.approx(static, abs=1e-9)

    def test_volatility_flags(self):
        assert SRAM_45NM.volatile
        assert not STT_MRAM_45NM.volatile

    def test_interpolation_is_monotone(self):
        # Latency must grow as the supply drops towards threshold.
        latencies = [SRAM_45NM.read_latency(v) for v in (1.2, 1.0, 0.9, 0.8)]
        assert latencies == sorted(latencies)

    def test_leakage_monotone_in_vdd(self):
        leaks = [SRAM_45NM.static_power(v) for v in (0.8, 1.0, 1.2)]
        assert leaks == sorted(leaks)

    def test_below_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SRAM_45NM.read_latency(V_TH)


class TestNvSim:
    def test_reference_point_exact(self):
        result = estimate(SRAM_45NM, 64 * 1024, HP_VDD)
        assert result.timing.read_ns == pytest.approx(1.12)
        assert result.power.static_mw == pytest.approx(23.29)

    def test_banked_capacity_keeps_access_latency(self):
        # 128 kB is two banked 64 kB macros: same access, doubled leakage.
        big = estimate(SRAM_45NM, 128 * 1024, HP_VDD)
        assert big.timing.read_ns == pytest.approx(1.12)
        assert big.power.static_mw == pytest.approx(2 * 23.29)

    def test_monolithic_macro_scales_latency(self):
        model = NvSimModel(SRAM_45NM)
        big = model.estimate(256 * 1024, HP_VDD, macro_bytes=None)
        assert big.timing.read_ns == pytest.approx(1.12 * 2.0)

    def test_small_capacity_scales_down(self):
        small = estimate(SRAM_45NM, 16 * 1024, HP_VDD)
        assert small.timing.read_ns < 1.12
        assert small.power.static_mw < 23.29

    def test_energy_properties(self):
        result = estimate(STT_MRAM_45NM, 64 * 1024, LP_VDD)
        assert result.read_energy_nj == pytest.approx(179.05 * 2.96 / 1000.0)
        assert result.write_energy_nj == pytest.approx(47.78 * 14.65 / 1000.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate(SRAM_45NM, 0, HP_VDD)

    def test_bad_timing_rejected(self):
        with pytest.raises(ConfigurationError):
            AccessTiming(read_ns=0.0, write_ns=1.0)


class TestMemoryBank:
    def make_bank(self, **kwargs):
        defaults = dict(
            name="t.sram", technology=SRAM_45NM,
            capacity_bytes=1024, vdd=HP_VDD,
        )
        defaults.update(kwargs)
        return MemoryBank(**defaults)

    def test_write_read_roundtrip(self):
        bank = self.make_bank()
        bank.write(10, b"hello")
        assert bank.read(10, 5) == b"hello"

    def test_read_charges_latency_and_energy(self):
        bank = self.make_bank()
        before = bank.stats.dynamic_energy_nj
        bank.read(0, 1)
        assert bank.stats.reads == 1
        assert bank.stats.dynamic_energy_nj > before

    def test_multi_word_access_counts(self):
        bank = self.make_bank(word_bytes=4)
        bank.write(0, bytes(12))
        assert bank.stats.writes == 3

    def test_out_of_range_read(self):
        bank = self.make_bank()
        with pytest.raises(AddressError):
            bank.read(1020, 8)

    def test_negative_address(self):
        bank = self.make_bank()
        with pytest.raises(AddressError):
            bank.read(-1, 1)

    def test_power_gating_blocks_access(self):
        bank = self.make_bank()
        bank.power_off()
        with pytest.raises(PowerGatingError):
            bank.read(0, 1)

    def test_volatile_gating_clears_contents(self):
        bank = self.make_bank()
        bank.write(0, b"\xaa")
        bank.power_off()
        bank.power_on()
        assert bank.read(0, 1) == b"\x00"

    def test_nonvolatile_gating_retains_contents(self):
        bank = self.make_bank(name="t.mram", technology=STT_MRAM_45NM)
        bank.write(0, b"\xaa")
        bank.power_off()
        bank.power_on()
        assert bank.read(0, 1) == b"\xaa"

    def test_idle_accounting_powered(self):
        bank = self.make_bank(capacity_bytes=64 * 1024)
        bank.account_idle(1000.0)
        assert bank.stats.static_energy_nj == pytest.approx(23.29 * 1000 / 1000.0)
        assert bank.stats.powered_time_ns == pytest.approx(1000.0)

    def test_idle_accounting_gated_is_free(self):
        bank = self.make_bank()
        bank.power_off()
        bank.account_idle(1000.0)
        assert bank.stats.static_energy_nj == 0.0
        assert bank.stats.gated_time_ns == pytest.approx(1000.0)

    def test_charge_accesses_matches_read(self):
        functional = self.make_bank()
        fast = self.make_bank()
        functional.read(0, 1)
        fast.charge_accesses(reads=1)
        assert fast.stats.dynamic_energy_nj == pytest.approx(
            functional.stats.dynamic_energy_nj
        )

    def test_charge_accesses_while_gated(self):
        bank = self.make_bank()
        bank.power_off()
        with pytest.raises(PowerGatingError):
            bank.charge_accesses(reads=1)

    def test_peek_free(self):
        bank = self.make_bank()
        bank.write(0, b"\x42")
        reads_before = bank.stats.reads
        assert bank.peek(0, 1) == b"\x42"
        assert bank.stats.reads == reads_before

    def test_reset_stats_keeps_contents(self):
        bank = self.make_bank()
        bank.write(0, b"\x11")
        bank.reset_stats()
        assert bank.stats.reads == 0
        assert bank.peek(0, 1) == b"\x11"

    def test_word_must_divide_capacity(self):
        with pytest.raises(ConfigurationError):
            self.make_bank(capacity_bytes=1000, word_bytes=3)

    def test_never_written_bank_reads_zeros_and_pickles_small(self):
        bank = self.make_bank(capacity_bytes=64 * 1024)
        assert bank.read(100, 4) == bytes(4)
        assert bank.peek(0, 16) == bytes(16)
        assert len(pickle.dumps(bank)) < 4096
        bank.write(0, b"\x01")
        assert len(pickle.dumps(bank)) > 64 * 1024

    def test_volatile_gating_drops_the_buffer(self):
        bank = self.make_bank(capacity_bytes=64 * 1024)
        bank.write(7, b"\x99")
        bank.power_off()
        bank.power_on()
        assert bank.peek(7, 1) == b"\x00"
        assert len(pickle.dumps(bank)) < 4096

    def test_equality_treats_unwritten_contents_as_zeros(self):
        fresh, zeroed, written = (self.make_bank() for _ in range(3))
        for bank in (zeroed, written):
            bank.write(3, b"\x00" if bank is zeroed else b"\x05")
            bank.reset_stats()
        assert fresh == zeroed and zeroed == fresh
        assert fresh != written and written != zeroed
        assert fresh == self.make_bank()
        assert fresh != self.make_bank(name="other")

    def test_stats_merge(self):
        a = self.make_bank()
        b = self.make_bank()
        a.read(0, 1)
        b.write(0, b"\x01")
        merged = a.stats.merge(b.stats)
        assert merged.reads == 1 and merged.writes == 1


class TestHybridMemory:
    def make(self):
        return HybridMemory(name="mod0", vdd=HP_VDD,
                            mram_capacity=256, sram_capacity=256)

    def test_flat_map_decode(self):
        hybrid = self.make()
        assert hybrid.decode(0).bank is BankKind.MRAM
        assert hybrid.decode(255).bank is BankKind.MRAM
        assert hybrid.decode(256).bank is BankKind.SRAM
        assert hybrid.decode(256).offset == 0

    def test_flat_map_encode_roundtrip(self):
        hybrid = self.make()
        for address in (0, 100, 256, 511):
            assert hybrid.encode(hybrid.decode(address)) == address

    def test_decode_out_of_range(self):
        hybrid = self.make()
        with pytest.raises(AddressError):
            hybrid.decode(512)

    def test_flat_write_read(self):
        hybrid = self.make()
        hybrid.write(300, b"\x7f")
        assert hybrid.read(300, 1) == b"\x7f"

    def test_load_operand_sync_waits_for_slower(self):
        hybrid = self.make()
        mram_read = hybrid.bank(BankKind.MRAM).read_latency_ns
        sram_read = hybrid.bank(BankKind.SRAM).read_latency_ns
        elapsed = hybrid.load_operands({BankKind.MRAM: 2, BankKind.SRAM: 2})
        assert elapsed == pytest.approx(max(2 * mram_read, 2 * sram_read))

    def test_load_operands_single_stream(self):
        hybrid = self.make()
        sram_read = hybrid.bank(BankKind.SRAM).read_latency_ns
        assert hybrid.load_operands({BankKind.SRAM: 3}) == pytest.approx(3 * sram_read)

    def test_load_operands_rejects_negative(self):
        hybrid = self.make()
        with pytest.raises(ConfigurationError):
            hybrid.load_operands({BankKind.SRAM: -1})

    def test_selective_power_off(self):
        hybrid = self.make()
        hybrid.power_off(BankKind.SRAM)
        assert not hybrid.bank(BankKind.SRAM).powered
        assert hybrid.bank(BankKind.MRAM).powered

    def test_needs_at_least_one_bank(self):
        with pytest.raises(ConfigurationError):
            HybridMemory(name="x", vdd=HP_VDD, mram_capacity=0, sram_capacity=0)

    def test_mram_only_memory(self):
        hybrid = HybridMemory(name="m", vdd=HP_VDD,
                              mram_capacity=128, sram_capacity=0)
        assert hybrid.capacity_bytes == 128
        with pytest.raises(AddressError):
            hybrid.bank(BankKind.SRAM)

    def test_stats_aggregate_both_banks(self):
        hybrid = self.make()
        hybrid.write(0, b"\x01")    # MRAM
        hybrid.write(256, b"\x02")  # SRAM
        assert hybrid.stats().writes == 2

    def test_idle_accounting_propagates(self):
        hybrid = self.make()
        hybrid.account_idle(100.0)
        assert hybrid.stats().static_energy_nj > 0

    def test_vdd_affects_latency(self):
        hp = HybridMemory(name="hp", vdd=HP_VDD, mram_capacity=64 * 1024,
                          sram_capacity=64 * 1024)
        lp = HybridMemory(name="lp", vdd=LP_VDD, mram_capacity=64 * 1024,
                          sram_capacity=64 * 1024)
        assert (lp.bank(BankKind.SRAM).read_latency_ns
                > hp.bank(BankKind.SRAM).read_latency_ns)
        assert math.isclose(hp.bank(BankKind.SRAM).read_latency_ns, 1.12)
