"""Differential suite: frontier DP/combine ≡ the dense scalar reference.

The production path keeps every DP row as a breakpoint frontier.
Expanded to dense tables it must be *bit-identical* to the scalar
per-element translation of the paper's recurrences — same ``dp`` and
``count`` tables, same allocation-state rows, same chosen
:class:`~repro.core.lut.Placement` rows — across randomized spaces,
budgets and capacities, ties and infeasible rows included.  The DP
side of each test is forced with :func:`scalar_dp`, so the suite checks
the same pair whatever ``REPRO_SCALAR_DP`` says.  Algorithm 2's
production path, :func:`unique_allocation_rows`, runs on frontiers;
:func:`set_allocation_state` is its per-budget reference over the dense
tables.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.arch import HH_PIM, HYBRID_PIM
from repro.core.combine import set_allocation_state, unique_allocation_rows
from repro.core.knapsack import (
    dp_build_count,
    knapsack_min_energy,
    scalar_dp,
    use_scalar_dp,
)
from repro.core.placement import DataPlacementOptimizer
from repro.core.spaces import SpaceKind, StorageSpace
from repro.workloads import EFFICIENTNET_B0


def make_space(kind, t, e, capacity):
    return StorageSpace(
        kind=kind,
        time_per_block_ns=t,
        dynamic_energy_per_block_nj=e,
        hold_static_energy_per_block_nj=0.0,
        access_static_energy_per_block_nj=0.0,
        capacity_blocks=capacity,
        full_static_power_mw=1.0,
        volatile=False,
    )


def random_instance(rng, kinds):
    """A randomized cluster: spaces with mixed bounded/unbounded caps."""
    spaces = [
        make_space(
            kind,
            t=rng.uniform(0.4, 9.0),
            e=rng.uniform(0.1, 25.0),
            capacity=rng.choice([1, 2, 3, 5, 8, 1000]),
        )
        for kind in kinds[: rng.randint(1, len(kinds))]
    ]
    t_steps = rng.randint(4, 70)
    max_blocks = rng.randint(2, 14)
    return spaces, t_steps, max_blocks


def assert_frontier_matches_scalar(spaces, t_steps, max_blocks):
    """Expand the frontier DP and compare it with the scalar tables."""
    with scalar_dp(False):
        fast = knapsack_min_energy(
            spaces, t_steps=t_steps, max_blocks=max_blocks, time_step_ns=1.0
        )
    with scalar_dp():
        ref = knapsack_min_energy(
            spaces, t_steps=t_steps, max_blocks=max_blocks, time_step_ns=1.0
        )
    assert fast.dense is None and ref.frontier is None
    for level in fast.frontier:
        for starts, energies, paths in level:
            assert starts[0] == 0
            assert all(a < b for a, b in zip(starts, starts[1:]))
            assert starts[-1] <= t_steps
            assert len(starts) == len(energies) == len(paths)
            # Adjacent pieces always differ (the rows are coalesced).
            assert all(
                (e1, p1) != (e2, p2)
                for e1, p1, e2, p2 in zip(energies, paths, energies[1:], paths[1:])
            )
    # Bit for bit: inf and every float of dp, and every count.
    assert fast.dp.shape == ref.dp.shape
    assert np.array_equal(fast.dp.view(np.uint64), ref.dp.view(np.uint64))
    assert np.array_equal(fast.count, ref.count)
    return fast, ref


class TestKnapsackDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_tables_bit_identical(self, seed):
        rng = random.Random(1000 + seed)
        kinds = [SpaceKind.HP_MRAM, SpaceKind.HP_SRAM, SpaceKind.LP_MRAM,
                 SpaceKind.LP_SRAM]
        spaces, t_steps, max_blocks = random_instance(rng, kinds)
        assert_frontier_matches_scalar(spaces, t_steps, max_blocks)

    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_capacities_below_k(self, seed):
        # No paper space has a capacity below K, so only this reaches the
        # bounded (take-j) branch with every space bounded.
        rng = random.Random(5000 + seed)
        max_blocks = rng.randint(4, 12)
        spaces = [
            make_space(
                kind, t=rng.uniform(0.5, 6.0), e=rng.uniform(0.5, 9.0),
                capacity=rng.randint(1, max_blocks - 1),
            )
            for kind in (SpaceKind.HP_MRAM, SpaceKind.HP_SRAM)
        ]
        fast, _ = assert_frontier_matches_scalar(spaces, 60, max_blocks)
        assert any(0 < c < max_blocks for c in np.unique(fast.count[2]))

    @pytest.mark.parametrize("capacity", [2, 1000])
    def test_block_time_beyond_the_table(self, capacity):
        # t_i > t_steps: the space can never take a block.
        spaces = [
            make_space(SpaceKind.HP_MRAM, t=1.0, e=3.0, capacity=1000),
            make_space(SpaceKind.HP_SRAM, t=45.0, e=0.5, capacity=capacity),
        ]
        fast, _ = assert_frontier_matches_scalar(spaces, 30, 6)
        assert not fast.count[2].any()

    @pytest.mark.parametrize("capacity", [3, 1000])
    def test_one_space_cluster(self, capacity):
        spaces = [make_space(SpaceKind.LP_SRAM, t=2.6, e=1.7, capacity=capacity)]
        assert_frontier_matches_scalar(spaces, 25, 7)

    @pytest.mark.parametrize("capacity", [2, 3, 1000])
    def test_equal_energy_ties(self, capacity):
        # Same block time and energy in two spaces, integer energies and
        # times that divide the budget: ties everywhere.  Only the strict
        # ``<`` (keep the earlier space) and the ascending take order
        # (prefer the smallest j) reproduce the scalar count table.
        spaces = [
            make_space(SpaceKind.HP_MRAM, t=2.0, e=1.0, capacity=capacity),
            make_space(SpaceKind.HP_SRAM, t=2.0, e=1.0, capacity=capacity),
            make_space(SpaceKind.LP_MRAM, t=1.0, e=2.0, capacity=capacity),
        ]
        fast, _ = assert_frontier_matches_scalar(spaces, 24, 6)
        assert fast.count.any()

    def test_fully_infeasible_rows(self):
        # Capacity 2 in total: every row with k > 2 is infinite at every
        # budget, and so is every row beyond the time range.
        spaces = [
            make_space(SpaceKind.HP_MRAM, t=1.0, e=1.0, capacity=1),
            make_space(SpaceKind.HP_SRAM, t=3.0, e=0.5, capacity=1),
        ]
        fast, _ = assert_frontier_matches_scalar(spaces, 10, 5)
        assert np.isinf(fast.dp[-1, :, 3:]).all()
        assert [len(fast.frontier[-1][k][0]) for k in (3, 4, 5)] == [1, 1, 1]

    def test_dense_view_is_built_once_on_demand(self):
        spaces = [make_space(SpaceKind.HP_SRAM, 1.0, 1.0, 1000)]
        with scalar_dp(False):
            result = knapsack_min_energy(
                spaces, t_steps=5, max_blocks=2, time_step_ns=1.0
            )
        assert result.dense is None
        assert result.dp is result.dp and result.dense is not None

    def test_build_lut_never_builds_a_dense_table(self, monkeypatch):
        from repro.core import placement

        built = []

        def recording(*args, **kwargs):
            built.append(knapsack_min_energy(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(placement, "knapsack_min_energy", recording)
        optimizer = DataPlacementOptimizer(
            HH_PIM, EFFICIENTNET_B0, t_slice_ns=3.3e7,
            block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS,
        )
        with scalar_dp(False):
            optimizer.build_lut()
            optimizer.build_lut(
                restrict_to=[SpaceKind.HP_MRAM, SpaceKind.LP_MRAM]
            )
        assert len(built) == 8
        assert all(r.frontier is not None and r.dense is None for r in built)

    def test_environment_variable_selects_scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_DP", "1")
        assert use_scalar_dp()
        monkeypatch.setenv("REPRO_SCALAR_DP", "0")
        assert not use_scalar_dp()

    def test_context_manager_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_DP", "1")
        with scalar_dp(False):
            assert not use_scalar_dp()
        assert use_scalar_dp()

    def test_build_counter_increments_per_table(self):
        spaces = [make_space(SpaceKind.HP_SRAM, 1.0, 1.0, 1000)]
        before = dp_build_count()
        knapsack_min_energy(spaces, t_steps=5, max_blocks=2, time_step_ns=1.0)
        knapsack_min_energy(spaces, t_steps=5, max_blocks=2, time_step_ns=1.0)
        assert dp_build_count() == before + 2


class TestCombineDifferential:
    def tables(self, seed):
        rng = random.Random(seed)
        hp_spaces, t_steps, max_blocks = random_instance(
            rng, [SpaceKind.HP_MRAM, SpaceKind.HP_SRAM]
        )
        lp_spaces = [
            make_space(
                kind,
                t=rng.uniform(0.4, 9.0),
                e=rng.uniform(0.1, 25.0),
                capacity=rng.choice([2, 4, 1000]),
            )
            for kind in (SpaceKind.LP_MRAM, SpaceKind.LP_SRAM)
        ]
        with scalar_dp(False):
            hp = knapsack_min_energy(
                hp_spaces, t_steps=t_steps, max_blocks=max_blocks,
                time_step_ns=1.0,
            )
            lp = knapsack_min_energy(
                lp_spaces, t_steps=t_steps, max_blocks=max_blocks,
                time_step_ns=1.0,
            )
        return hp, lp, max_blocks

    @staticmethod
    def first_rows(rows):
        """The first row of each distinct placement, in budget order."""
        seen = {}
        for row in rows:
            if row is not None:
                key = tuple(sorted((k.value, v) for k, v in row.counts.items()))
                seen.setdefault(key, row)
        return list(seen.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_two_cluster_rows_identical(self, seed):
        hp, lp, blocks = self.tables(2000 + seed)
        assert unique_allocation_rows(hp, lp, blocks) == self.first_rows(
            set_allocation_state(hp, lp, blocks)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_single_cluster_rows_identical(self, seed):
        hp, _, blocks = self.tables(3000 + seed)
        assert unique_allocation_rows(hp, None, blocks) == self.first_rows(
            set_allocation_state(hp, None, blocks)
        )

    def test_tied_splits_take_the_first_minimum(self):
        # Identical clusters with integer energies: many k_hp splits tie,
        # and the dense argmin keeps the smallest k_hp.
        spaces = [make_space(SpaceKind.HP_SRAM, t=1.0, e=1.0, capacity=1000)]
        lp_spaces = [make_space(SpaceKind.LP_SRAM, t=1.0, e=1.0, capacity=1000)]
        with scalar_dp(False):
            hp = knapsack_min_energy(spaces, 12, 8, 1.0)
            lp = knapsack_min_energy(lp_spaces, 12, 8, 1.0)
        unique = unique_allocation_rows(hp, lp, 8)
        assert unique == self.first_rows(set_allocation_state(hp, lp, 8))
        assert [row.k_hp for row in unique] == [4, 3, 2, 1, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_unique_rows_are_first_occurrences(self, seed):
        # The scalar DP's tables carry no frontier, so Algorithm 2 takes
        # its dense reference on them: one switch selects both oracles.
        hp, lp, blocks = self.tables(4000 + seed)
        with scalar_dp():
            ref_hp = knapsack_min_energy(
                hp.spaces, hp.t_steps, hp.max_blocks, hp.time_step_ns
            )
            ref_lp = knapsack_min_energy(
                lp.spaces, lp.t_steps, lp.max_blocks, lp.time_step_ns
            )
        assert ref_hp.frontier is None and ref_lp.frontier is None
        unique = unique_allocation_rows(ref_hp, ref_lp, blocks)
        assert unique == self.first_rows(
            set_allocation_state(ref_hp, ref_lp, blocks)
        )
        assert unique == unique_allocation_rows(hp, lp, blocks)


class TestPlacementDifferential:
    @pytest.fixture(scope="class")
    def optimizer(self):
        return DataPlacementOptimizer(
            HH_PIM, EFFICIENTNET_B0, t_slice_ns=3.3e7,
            block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS,
        )

    def test_lut_candidates_identical(self, optimizer):
        with scalar_dp(False):
            fast = optimizer.build_lut()
        with scalar_dp():
            ref = optimizer.build_lut()
        assert fast.candidates == ref.candidates

    def test_restricted_lut_identical(self, optimizer):
        mram = [SpaceKind.HP_MRAM, SpaceKind.LP_MRAM]
        with scalar_dp(False):
            fast = optimizer.build_lut(restrict_to=mram)
        with scalar_dp():
            ref = optimizer.build_lut(restrict_to=mram)
        assert fast.candidates == ref.candidates

    def test_single_cluster_architecture_identical(self):
        optimizer = DataPlacementOptimizer(
            HYBRID_PIM, EFFICIENTNET_B0, t_slice_ns=3.3e7,
            block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS,
        )
        with scalar_dp(False):
            fast = optimizer.build_lut()
        with scalar_dp():
            ref = optimizer.build_lut()
        assert fast.candidates == ref.candidates
