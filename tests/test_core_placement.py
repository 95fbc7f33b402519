"""Tests for the storage-space pricing, the optimizer, the LUT and the
time-slice runtime (shared reduced-resolution fixtures from conftest)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.arch import BASELINE_PIM, HH_PIM, HYBRID_PIM
from repro.core import DataPlacementOptimizer, PlacementPolicy, SpaceKind
from repro.core.runtime import TimeSliceRuntime, default_time_slice_ns
from repro.core.spaces import CORE_MAC_TIME_NS
from repro.errors import InfeasibleError, PlacementError
from repro.workloads import EFFICIENTNET_B0, RESNET_18, scenario, ScenarioCase

from _shared import SMALL_BLOCKS, SMALL_STEPS


class TestSpaces:
    def test_four_spaces_for_hh(self, hh_optimizer):
        kinds = {space.kind for space in hh_optimizer.spaces}
        assert kinds == {
            SpaceKind.HP_SRAM, SpaceKind.HP_MRAM,
            SpaceKind.LP_SRAM, SpaceKind.LP_MRAM,
        }

    def test_hp_sram_is_fastest(self, hh_optimizer):
        times = {s.kind: s.time_per_block_ns for s in hh_optimizer.spaces}
        assert times[SpaceKind.HP_SRAM] < times[SpaceKind.HP_MRAM]
        assert times[SpaceKind.HP_MRAM] < times[SpaceKind.LP_SRAM]
        assert times[SpaceKind.LP_SRAM] < times[SpaceKind.LP_MRAM]

    def test_volatility_tagging(self, hh_optimizer):
        for space in hh_optimizer.spaces:
            if space.kind in (SpaceKind.HP_SRAM, SpaceKind.LP_SRAM):
                assert space.volatile
                assert space.hold_static_energy_per_block_nj > 0
            else:
                assert not space.volatile
                assert space.hold_static_energy_per_block_nj == 0.0

    def test_hold_static_power_steps_with_granules(self, hh_optimizer):
        space = hh_optimizer.space(SpaceKind.HP_SRAM)
        none = space.hold_static_power_mw(0)
        one = space.hold_static_power_mw(1)
        all_blocks = space.hold_static_power_mw(SMALL_BLOCKS)
        assert none == 0.0
        assert 0 < one <= all_blocks
        assert all_blocks <= space.full_static_power_mw + 1e-9

    def test_mram_hold_free(self, hh_optimizer):
        space = hh_optimizer.space(SpaceKind.LP_MRAM)
        assert space.hold_static_power_mw(SMALL_BLOCKS) == 0.0

    def test_space_kind_mapping(self):
        from repro.isa.encoding import ClusterId
        from repro.memory.hybrid import BankKind
        assert SpaceKind.of(ClusterId.HP, BankKind.SRAM) is SpaceKind.HP_SRAM
        assert SpaceKind.LP_MRAM.cluster is ClusterId.LP
        assert SpaceKind.LP_MRAM.cluster.other is ClusterId.HP
        assert SpaceKind.LP_MRAM.bank is BankKind.MRAM


class TestOptimizer:
    def test_peak_matches_paper_inference_time(self, hh_lut):
        # Fig. 6: EfficientNet-B0 peak inference = 31.06 ms at 50 MHz.
        inference_ns = (hh_lut.peak_placement.task_time_ns
                        + EFFICIENTNET_B0.core_macs * CORE_MAC_TIME_NS)
        assert inference_ns == pytest.approx(
            EFFICIENTNET_B0.peak_inference_ns, rel=0.05
        )

    def test_peak_uses_sram_of_both_clusters(self, hh_lut):
        counts = hh_lut.peak_placement.counts
        assert counts[SpaceKind.HP_SRAM] > 0
        # Both clusters participate at the peak point.
        assert counts[SpaceKind.LP_SRAM] + counts[SpaceKind.LP_MRAM] > 0
        # SRAM carries the majority of the weights at peak performance
        # (the exact 16:9 split is asserted by the full-resolution
        # Fig. 6 benchmark; at test resolution quantisation shifts it).
        sram = counts[SpaceKind.HP_SRAM] + counts[SpaceKind.LP_SRAM]
        assert sram > SMALL_BLOCKS / 2

    def test_relaxed_is_lp_mram_only(self, hh_lut):
        counts = hh_lut.most_relaxed_placement.counts
        assert counts[SpaceKind.LP_MRAM] == SMALL_BLOCKS
        assert hh_lut.most_relaxed_placement.hold_static_power_mw == 0.0

    def test_mram_only_restriction(self, hh_optimizer):
        mram_kinds = [SpaceKind.HP_MRAM, SpaceKind.LP_MRAM]
        lut = hh_optimizer.build_lut(restrict_to=mram_kinds)
        for placement in lut.candidates:
            assert placement.counts.get(SpaceKind.HP_SRAM, 0) == 0
            assert placement.counts.get(SpaceKind.LP_SRAM, 0) == 0

    def test_mram_only_peak_slower_than_hybrid_peak(self, hh_optimizer, hh_lut):
        # The green dot beats the purple dot (SRAM-for-weights wins).
        mram_lut = hh_optimizer.build_lut(
            restrict_to=[SpaceKind.HP_MRAM, SpaceKind.LP_MRAM]
        )
        assert (mram_lut.peak_placement.task_time_ns
                > hh_lut.peak_placement.task_time_ns)

    def test_lookup_respects_budget(self, hh_lut):
        budget = hh_lut.peak_placement.task_time_ns * 1.5
        placement = hh_lut.lookup(budget)
        assert placement.task_time_ns <= budget

    def test_lookup_infeasible_below_peak(self, hh_lut):
        with pytest.raises(InfeasibleError):
            hh_lut.lookup(hh_lut.min_feasible_t_ns * 0.5)

    def test_lookup_energy_monotone_with_window(self, hh_lut):
        # With the slice-long hold window the selected energies decline
        # as the budget relaxes (the paper's Fig. 6 curve).
        window = hh_lut.t_max_ns
        budgets = [hh_lut.min_feasible_t_ns * f for f in (1.0, 2.0, 4.0, 8.0)]
        energies = [
            hh_lut.lookup(b, window_ns=window).task_energy_nj(window)
            for b in budgets
        ]
        assert all(b <= a + 1e-6 for a, b in zip(energies, energies[1:]))

    def test_negative_budget_rejected(self, hh_lut):
        with pytest.raises(PlacementError):
            hh_lut.lookup(-1.0)

    def test_fixed_mram_only_policy(self, t_slice):
        optimizer = DataPlacementOptimizer(
            HYBRID_PIM, EFFICIENTNET_B0, t_slice_ns=t_slice,
            block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS,
        )
        placement = optimizer.fixed_placement(PlacementPolicy.FIXED_MRAM_ONLY)
        assert placement.counts.get(SpaceKind.HP_MRAM, 0) == SMALL_BLOCKS

    def test_baseline_has_single_space(self, t_slice):
        optimizer = DataPlacementOptimizer(
            BASELINE_PIM, EFFICIENTNET_B0, t_slice_ns=t_slice,
            block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS,
        )
        assert [s.kind for s in optimizer.spaces] == [SpaceKind.HP_SRAM]
        placement = optimizer.fixed_placement(
            PlacementPolicy.FIXED_LATENCY_OPTIMAL
        )
        assert placement.counts[SpaceKind.HP_SRAM] == SMALL_BLOCKS

    def test_mram_only_on_baseline_rejected(self, t_slice):
        optimizer = DataPlacementOptimizer(
            BASELINE_PIM, EFFICIENTNET_B0, t_slice_ns=t_slice,
            block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS,
        )
        with pytest.raises(PlacementError):
            optimizer.fixed_placement(PlacementPolicy.FIXED_MRAM_ONLY)

    def test_movement_conserves_blocks(self, hh_optimizer, hh_lut):
        peak = hh_lut.peak_placement.counts
        relaxed = hh_lut.most_relaxed_placement.counts
        movement = hh_optimizer.movement(peak, relaxed)
        expected = sum(
            max(0, relaxed.get(kind, 0) - peak.get(kind, 0))
            for kind in set(peak) | set(relaxed)
        )
        assert movement.blocks_moved == expected > 0
        assert movement.time_ns > 0
        assert movement.energy_nj > 0

    def test_movement_identity_is_free(self, hh_optimizer, hh_lut):
        counts = hh_lut.peak_placement.counts
        movement = hh_optimizer.movement(counts, counts)
        assert movement.blocks_moved == 0
        assert movement.time_ns == 0.0

    def test_movement_nonconserving_rejected(self, hh_optimizer):
        with pytest.raises(PlacementError):
            hh_optimizer.movement(
                {SpaceKind.HP_SRAM: 2}, {SpaceKind.HP_SRAM: 3}
            )

    def test_movement_pricing_ignores_hash_seed(self):
        """Blocks leaving three spaces (and the reverse) price to the
        same bits whatever ``PYTHONHASHSEED`` orders the kinds by."""
        script = textwrap.dedent("""
            from repro.arch import HH_PIM
            from repro.core import DataPlacementOptimizer, SpaceKind as K
            from repro.workloads import EFFICIENTNET_B0

            optimizer = DataPlacementOptimizer(
                HH_PIM, EFFICIENTNET_B0, t_slice_ns=1e9,
                block_count=16, time_steps=200,
            )
            for spread in [(3, 5, 7), (2, 9, 4)]:
                old = dict(zip((K.HP_SRAM, K.HP_MRAM, K.LP_SRAM), spread))
                new = {K.LP_MRAM: sum(spread)}
                for a, b in [(old, new), (new, old)]:
                    move = optimizer.movement(a, b)
                    print(move.time_ns.hex(), move.energy_nj.hex())
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": str(seed)},
                stdout=subprocess.PIPE, text=True,
            )
            for seed in range(4)
        ]
        outputs = {proc.communicate(timeout=120)[0] for proc in procs}
        assert all(proc.returncode == 0 for proc in procs)
        assert len(outputs) == 1

    def test_policy_defaults(self):
        from repro.arch import HETEROGENEOUS_PIM
        assert PlacementPolicy.default_for(HH_PIM) is PlacementPolicy.DYNAMIC_LUT
        assert (PlacementPolicy.default_for(HYBRID_PIM)
                is PlacementPolicy.FIXED_MRAM_ONLY)
        assert (PlacementPolicy.default_for(HETEROGENEOUS_PIM)
                is PlacementPolicy.FIXED_LATENCY_OPTIMAL)


class TestRuntime:
    def test_time_slice_default_sizing(self, t_slice):
        # T covers 10 peak inferences plus a small scheduling headroom.
        ten = 10 * EFFICIENTNET_B0.peak_inference_ns
        assert ten * 0.95 < t_slice < ten * 1.15

    def test_all_architectures_meet_deadlines(self, runtimes):
        sc = scenario(ScenarioCase.PERIODIC_SPIKE)
        for name, runtime in runtimes.items():
            result = runtime.run(sc)
            assert result.deadlines_met, name

    def test_hh_beats_all_baselines_in_every_case(self, runtimes):
        for case in ScenarioCase:
            sc = scenario(case)
            energies = {
                name: runtime.run(sc).total_energy_nj
                for name, runtime in runtimes.items()
            }
            hh = energies["HH-PIM"]
            for name, energy in energies.items():
                if name == "HH-PIM":
                    continue
                if (case is ScenarioCase.HIGH_CONSTANT
                        and name == "Heterogeneous-PIM"):
                    # The paper's worst case: 3.72 % savings; at test
                    # resolution the gap may quantise to near zero.
                    assert hh < energy * 1.02, (case, name)
                else:
                    assert hh < energy, (case, name)

    def test_case1_is_best_case2_is_worst(self, runtimes):
        """Fig. 5: constant-low maximises savings, constant-high minimises."""
        savings = {}
        for case in (ScenarioCase.LOW_CONSTANT, ScenarioCase.HIGH_CONSTANT,
                     ScenarioCase.PULSING):
            sc = scenario(case)
            base = runtimes["Baseline-PIM"].run(sc).total_energy_nj
            hh = runtimes["HH-PIM"].run(sc).total_energy_nj
            savings[case] = 1 - hh / base
        assert savings[ScenarioCase.LOW_CONSTANT] == max(savings.values())
        assert savings[ScenarioCase.HIGH_CONSTANT] == min(savings.values())

    def test_hetero_gap_smallest_at_high_load(self, runtimes):
        """Paper: in Case 2 both HH and Hetero sit in SRAM -> tiny gap."""
        high = scenario(ScenarioCase.HIGH_CONSTANT)
        low = scenario(ScenarioCase.LOW_CONSTANT)
        def gap(sc):
            hetero = runtimes["Heterogeneous-PIM"].run(sc).total_energy_nj
            hh = runtimes["HH-PIM"].run(sc).total_energy_nj
            return 1 - hh / hetero
        assert gap(high) < gap(low)
        assert gap(high) < 0.15

    def test_records_structure(self, runtimes):
        result = runtimes["HH-PIM"].run(scenario(ScenarioCase.RANDOM))
        assert len(result.records) == 50
        for record in result.records:
            assert record.total_energy_nj > 0
            assert record.busy_time_ns >= 0
            assert sum(record.placement_counts.values()) == SMALL_BLOCKS

    def test_idle_slices_relax_placement(self, runtimes):
        runtime = runtimes["HH-PIM"]
        sc = scenario(ScenarioCase.LOW_CONSTANT)
        result = runtime.run(sc)
        # At low constant load the steady-state placement is MRAM-heavy.
        last = result.records[-1]
        mram_blocks = (last.placement_counts.get(SpaceKind.LP_MRAM, 0)
                       + last.placement_counts.get(SpaceKind.HP_MRAM, 0))
        assert mram_blocks > SMALL_BLOCKS / 2

    def test_high_load_forces_sram(self, runtimes):
        result = runtimes["HH-PIM"].run(scenario(ScenarioCase.HIGH_CONSTANT))
        last = result.records[-1]
        sram_blocks = (last.placement_counts.get(SpaceKind.HP_SRAM, 0)
                       + last.placement_counts.get(SpaceKind.LP_SRAM, 0))
        assert sram_blocks > SMALL_BLOCKS / 2

    def test_movement_charged_on_transitions(self, runtimes):
        result = runtimes["HH-PIM"].run(scenario(ScenarioCase.PULSING))
        moved = [r for r in result.records if r.movement.blocks_moved > 0]
        assert moved, "pulsing workload must trigger reallocation"
        assert all(r.movement_energy_nj > 0 for r in moved)

    def test_fixed_policy_never_moves_after_boot(self, runtimes):
        result = runtimes["Hybrid-PIM"].run(scenario(ScenarioCase.PULSING))
        for record in result.records:
            assert record.movement.blocks_moved == 0

    def test_energy_per_inference(self, runtimes):
        result = runtimes["HH-PIM"].run(scenario(ScenarioCase.RANDOM))
        assert result.total_inferences == result.scenario.total_inferences
        assert result.energy_per_inference_nj > 0

    def test_mean_power_sanity(self, runtimes):
        result = runtimes["Baseline-PIM"].run(scenario(ScenarioCase.HIGH_CONSTANT))
        # A small PIM fabric must land in the mW..W range, not kW.
        assert 1.0 < result.mean_power_mw < 5000.0

    def test_resnet_fits_hh(self):
        # ResNet-18 (256 kB of weights) just fits the 4x64 kB spaces.
        t = default_time_slice_ns(RESNET_18, block_count=16, time_steps=1500)
        runtime = TimeSliceRuntime(HH_PIM, RESNET_18, t_slice_ns=t,
                                   block_count=16, time_steps=1500)
        result = runtime.run(scenario(ScenarioCase.LOW_CONSTANT, slices=5))
        assert result.deadlines_met
