"""The end-to-end data-placement optimizer.

:class:`DataPlacementOptimizer` wires the whole Section III pipeline for
one (architecture, model, time slice) triple:

1. price the storage spaces (:func:`repro.core.spaces.build_spaces`),
2. run Algorithm 1 per cluster (:func:`repro.core.knapsack.knapsack_min_energy`),
3. run Algorithm 2 (:func:`repro.core.combine.unique_allocation_rows`),
4. evaluate each distinct placement in continuous time and compile the
   :class:`~repro.core.lut.AllocationLUT`.

It also provides the comparison groups' *fixed* policies (Table I):
Baseline-/Heterogeneous-PIM place weights for minimum latency once and
never move them; Hybrid-PIM fixes all weights in MRAM, H-PIM style.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from ..arch.specs import ArchitectureSpec
from ..errors import ConfigurationError, InfeasibleError, PlacementError
from ..isa.encoding import ClusterId
from ..pim.cluster import PIMCluster
from ..workloads.models import ModelSpec
from .combine import unique_allocation_rows
from .defaults import DEFAULT_BLOCK_COUNT, DEFAULT_TIME_STEPS
from .knapsack import knapsack_min_energy
from .lut import AllocationLUT, Placement
from .spaces import PIM_LATENCY_SCALE, SpaceKind, StorageSpace, build_spaces

#: Position of each space kind in declaration order.
_KIND_ORDER = {kind: index for index, kind in enumerate(SpaceKind)}

#: Time-step granularity relative to the fastest space's block time.
TIME_QUANT = 12

#: Sub-array power-gating granularity for hold leakage (bytes).
DEFAULT_GRANULE_BYTES = 16 * 1024


class PlacementPolicy(str, Enum):
    """How an architecture chooses its weight placement."""

    #: The proposed HH-PIM behaviour: re-consult the LUT every slice.
    DYNAMIC_LUT = "dynamic_lut"
    #: Conventional behaviour: one latency-optimal placement, never moved.
    FIXED_LATENCY_OPTIMAL = "fixed_latency_optimal"
    #: H-PIM behaviour: all weights in MRAM, SRAM reserved for I/O.
    FIXED_MRAM_ONLY = "fixed_mram_only"

    @classmethod
    def default_for(cls, spec: ArchitectureSpec) -> "PlacementPolicy":
        """The paper's policy for each Table I architecture."""
        if spec.name == "HH-PIM":
            return cls.DYNAMIC_LUT
        if spec.name == "Hybrid-PIM":
            return cls.FIXED_MRAM_ONLY
        return cls.FIXED_LATENCY_OPTIMAL


@dataclass(frozen=True)
class MovementEstimate:
    """Cost of transitioning between two placements."""

    blocks_moved: int
    time_ns: float
    energy_nj: float


class DataPlacementOptimizer:
    """Builds and evaluates allocation LUTs for one architecture/model."""

    def __init__(
        self,
        spec: ArchitectureSpec,
        model: ModelSpec,
        t_slice_ns: float,
        block_count: int = DEFAULT_BLOCK_COUNT,
        time_steps: int = DEFAULT_TIME_STEPS,
        latency_scale: float = PIM_LATENCY_SCALE,
        granule_bytes: int = DEFAULT_GRANULE_BYTES,
    ) -> None:
        if t_slice_ns <= 0:
            raise ConfigurationError("time slice must be positive")
        if block_count <= 0 or time_steps <= 0:
            raise ConfigurationError("block count and time steps must be positive")
        self.spec = spec
        self.model = model
        self.t_slice_ns = t_slice_ns
        self.block_count = block_count
        self.time_steps = time_steps
        self.latency_scale = latency_scale
        self.granule_bytes = granule_bytes

        self.clusters = {
            cluster_id: PIMCluster(
                cluster_id=cluster_id,
                kind=cluster_spec.kind,
                module_count=cluster_spec.module_count,
                mram_capacity=cluster_spec.mram_capacity,
                sram_capacity=cluster_spec.sram_capacity,
            )
            for cluster_id, cluster_spec in spec.cluster_specs()
        }
        self.spaces = build_spaces(
            self.clusters, model, t_slice_ns, block_count, latency_scale
        )
        self._space_by_kind = {space.kind: space for space in self.spaces}
        total_capacity = sum(space.capacity_blocks for space in self.spaces)
        if total_capacity < block_count:
            raise InfeasibleError(
                f"{model.name} does not fit {spec.name}: "
                f"{block_count} blocks > capacity {total_capacity}"
            )
        self.time_step_ns, self.time_steps = self._choose_time_step()

    def _choose_time_step(self):
        """Pick a time step fine enough to separate the spaces' speeds.

        The step is ``1/TIME_QUANT`` of the fastest space's block time so
        that quantisation cannot collapse two spaces with different
        speeds onto the same step count; ``time_steps`` then spans the
        slice, bounded by the configured cap (the paper's resolution
        limit).
        """
        fastest = min(space.time_per_block_ns for space in self.spaces)
        step = fastest / TIME_QUANT
        steps = math.ceil(self.t_slice_ns / step)
        if steps > self.time_steps:
            steps = self.time_steps
            step = self.t_slice_ns / steps
        return step, steps

    # -- space helpers -----------------------------------------------------------

    def space(self, kind: SpaceKind) -> StorageSpace:
        """The priced space of the given kind."""
        try:
            return self._space_by_kind[kind]
        except KeyError:
            raise PlacementError(
                f"{self.spec.name} has no {kind.value} space"
            ) from None

    def cluster_spaces(self, cluster_id: ClusterId):
        """The spaces belonging to one cluster, MRAM first."""
        spaces = [s for s in self.spaces if s.kind.cluster is cluster_id]
        return sorted(spaces, key=lambda s: s.kind.bank.value)

    # -- LUT construction ----------------------------------------------------------

    def build_lut(self, restrict_to=None) -> AllocationLUT:
        """Run Algorithms 1+2 and compile the allocation LUT.

        ``restrict_to`` optionally limits the usable spaces (e.g. MRAM
        kinds only for the H-PIM comparison / the purple dot of Fig. 6).

        Candidate placements are generated under *two* pricings of
        ``e_i`` — the hold-amortised energy (relaxed budgets) and the
        dynamic-only energy (tight budgets, where leakage windows are
        short) — and the LUT's evaluation layer ranks the merged set with
        the exact granule-level hold power.  A single linear pricing
        systematically misses one end of the spectrum.
        """
        allowed = set(restrict_to) if restrict_to is not None else None

        def cluster_table(cluster_id, dynamic_only):
            spaces = self.cluster_spaces(cluster_id)
            if allowed is not None:
                spaces = [s for s in spaces if s.kind in allowed]
            if not spaces:
                return None
            if dynamic_only:
                spaces = [
                    replace(s, hold_static_energy_per_block_nj=0.0)
                    for s in spaces
                ]
            return knapsack_min_energy(
                spaces,
                t_steps=self.time_steps,
                max_blocks=self.block_count,
                time_step_ns=self.time_step_ns,
            )

        placements = []
        for dynamic_only in (False, True):
            hp_table = cluster_table(ClusterId.HP, dynamic_only)
            lp_table = (
                cluster_table(ClusterId.LP, dynamic_only)
                if ClusterId.LP in self.clusters
                else None
            )
            if hp_table is None:
                if lp_table is None:
                    raise PlacementError("no usable spaces after restriction")
                # Single-cluster LP-only restriction: 1-cluster path.
                hp_table, lp_table = lp_table, None
            # Only each distinct placement's first row is evaluated in
            # continuous time: the LUT keeps the first occurrences anyway.
            rows = unique_allocation_rows(hp_table, lp_table, self.block_count)
            placements.extend(self._evaluate_row(row) for row in rows)
        return AllocationLUT(
            placements, self.time_step_ns, t_max_ns=self.t_slice_ns
        )

    def _evaluate_row(self, row) -> Placement:
        counts = dict(row.counts)
        task_time = self.task_time_ns(counts)
        dynamic = sum(
            self.space(kind).dynamic_energy_per_block_nj * blocks
            for kind, blocks in counts.items()
        )
        hold = self.hold_static_power_mw(counts)
        return Placement(
            t_budget_ns=row.t_step * self.time_step_ns,
            counts=counts,
            task_time_ns=task_time,
            dp_energy_nj=row.energy_nj,
            dynamic_energy_nj=dynamic,
            hold_static_power_mw=hold,
            k_hp=row.k_hp,
            k_lp=row.k_lp,
        )

    # -- evaluation helpers -------------------------------------------------------------

    def task_time_ns(self, counts: dict) -> float:
        """Task completion time: clusters in parallel, spaces serialised."""
        per_cluster = {cluster_id: 0.0 for cluster_id in self.clusters}
        for kind, blocks in counts.items():
            per_cluster[kind.cluster] += (
                blocks * self.space(kind).time_per_block_ns
            )
        return max(per_cluster.values()) if per_cluster else 0.0

    def dynamic_energy_nj(self, counts: dict) -> float:
        """Per-task dynamic energy of a placement."""
        return sum(
            self.space(kind).dynamic_energy_per_block_nj * blocks
            for kind, blocks in counts.items()
        )

    def hold_static_power_mw(self, counts: dict) -> float:
        """Leakage power of holding a placement between tasks."""
        return sum(
            self.space(kind).hold_static_power_mw(blocks, self.granule_bytes)
            for kind, blocks in counts.items()
        )

    def mram_access_static_energy_nj(self, counts: dict) -> float:
        """Per-task MRAM leakage (powered only during its accesses)."""
        return sum(
            self.space(kind).access_static_energy_per_block_nj * blocks
            for kind, blocks in counts.items()
            if not self.space(kind).volatile
        )

    # -- fixed placements for the comparison groups ----------------------------------------

    def fixed_placement(self, policy: PlacementPolicy) -> Placement:
        """The placement a non-adaptive architecture would keep forever."""
        if policy is PlacementPolicy.FIXED_MRAM_ONLY:
            mram_kinds = [
                s.kind for s in self.spaces if s.kind.bank.value == "mram"
            ]
            if not mram_kinds:
                raise PlacementError(
                    f"{self.spec.name} has no MRAM for an MRAM-only policy"
                )
            lut = self.build_lut(restrict_to=mram_kinds)
            return lut.peak_placement
        if policy is PlacementPolicy.FIXED_LATENCY_OPTIMAL:
            return self.build_lut().peak_placement
        raise PlacementError(f"{policy} is not a fixed policy")

    # -- movement overhead ------------------------------------------------------------------

    def movement(self, old_counts: dict, new_counts: dict) -> MovementEstimate:
        """Price the transition between two placements.

        Blocks leaving a space are read once from it; blocks entering a
        space are written once to it.  Streams to distinct modules run in
        parallel over the MEM Interface Logic, so time divides by the
        destination space's module count; energy counts every access.
        """
        # Declaration order, not set order: a set of str-valued enum
        # members iterates in PYTHONHASHSEED-dependent order, and the
        # float sums below depend on the order of their terms.
        kinds = sorted(
            set(old_counts) | set(new_counts), key=_KIND_ORDER.__getitem__
        )
        moved_out = {}
        moved_in = {}
        for kind in kinds:
            delta = new_counts.get(kind, 0) - old_counts.get(kind, 0)
            if delta > 0:
                moved_in[kind] = delta
            elif delta < 0:
                moved_out[kind] = -delta
        blocks_moved = sum(moved_in.values())
        if blocks_moved != sum(moved_out.values()):
            raise PlacementError(
                "placement transition does not conserve blocks"
            )
        if blocks_moved == 0:
            return MovementEstimate(0, 0.0, 0.0)

        time_ns = 0.0
        energy_nj = 0.0
        for kind, blocks in moved_out.items():
            space = self.space(kind)
            bank = self.clusters[kind.cluster].modules[0].memory.bank(kind.bank)
            accesses_per_block = math.ceil(space.block_bytes)
            reads = blocks * accesses_per_block
            energy_nj += reads * bank.read_energy_nj
            time_ns += (
                reads * bank.read_latency_ns * self.latency_scale / space.modules
            )
        for kind, blocks in moved_in.items():
            space = self.space(kind)
            bank = self.clusters[kind.cluster].modules[0].memory.bank(kind.bank)
            accesses_per_block = math.ceil(space.block_bytes)
            writes = blocks * accesses_per_block
            energy_nj += writes * bank.write_energy_nj
            time_ns += (
                writes * bank.write_latency_ns * self.latency_scale / space.modules
            )
        return MovementEstimate(
            blocks_moved=blocks_moved, time_ns=time_ns, energy_nj=energy_nj
        )
