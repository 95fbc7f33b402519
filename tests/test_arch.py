"""Unit tests for the architecture specs."""

import pytest

from repro.arch import (
    BASELINE_PIM,
    HETEROGENEOUS_PIM,
    HH_PIM,
    HYBRID_PIM,
    TABLE_I,
)
from repro.arch.specs import ArchitectureSpec, ClusterSpec
from repro.errors import ConfigurationError
from repro.pim.module import ModuleKind


class TestTableI:
    """The four presets must match Table I exactly."""

    def test_baseline(self):
        assert BASELINE_PIM.hp.module_count == 8
        assert BASELINE_PIM.hp.sram_capacity == 128 * 1024
        assert BASELINE_PIM.hp.mram_capacity == 0
        assert BASELINE_PIM.lp is None

    def test_heterogeneous(self):
        assert HETEROGENEOUS_PIM.hp.module_count == 4
        assert HETEROGENEOUS_PIM.lp.module_count == 4
        assert HETEROGENEOUS_PIM.lp.sram_capacity == 128 * 1024
        assert not HETEROGENEOUS_PIM.hybrid

    def test_hybrid(self):
        assert HYBRID_PIM.hp.module_count == 8
        assert HYBRID_PIM.hp.mram_capacity == 64 * 1024
        assert HYBRID_PIM.hp.sram_capacity == 64 * 1024
        assert HYBRID_PIM.hybrid and not HYBRID_PIM.heterogeneous

    def test_hh(self):
        assert HH_PIM.heterogeneous and HH_PIM.hybrid
        assert HH_PIM.total_modules == 8

    def test_every_design_has_8_modules_and_1mb(self):
        for spec in TABLE_I:
            assert spec.total_modules == 8
            capacity = spec.total_capacity()
            assert capacity["mram"] + capacity["sram"] == 1024 * 1024

    def test_cluster_kind_validation(self):
        with pytest.raises(ConfigurationError):
            ArchitectureSpec(
                name="bad",
                hp=ClusterSpec(ModuleKind.LP, 4, 0, 1024),
            )

    def test_memoryless_module_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(ModuleKind.HP, 4, 0, 0)
