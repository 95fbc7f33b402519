"""Algorithm 2: optimal cross-cluster split of the weight blocks.

The HP and LP clusters compute in parallel, so a placement is feasible at
time budget ``t`` when *each* cluster finishes within ``t``.  For every
``t`` Algorithm 2 scans the candidate splits ``(k_hp, k_lp = K - k_hp)``
and keeps the split minimising ``dp_hp[n/2][t][k_hp] +
dp_lp[n/2][t][k_lp]``, producing the ``allocation_state`` rows that the
LUT compiles (paper, Section III-B).

The final DP rows of both clusters are step functions of ``t`` (see
:mod:`repro.core.knapsack`), so the optimal split can only change at a
breakpoint of one of them.  The scan therefore runs once per interval of
the union of their breakpoints instead of once per budget: for each
interval it adds the HP final rows to the *reversed* LP final rows and
takes the first minimum along ``k_hp``, the same float sums and tie rule
as a dense scan, and the per-space counts come straight from the chosen
pieces' count paths.  Unlike the paper's pseudo-code we include the
degenerate splits ``k_hp = 0`` and ``k_lp = 0`` — Fig. 6's "LP-MRAM
only" region *is* the ``k_hp = 0`` split, so the pseudo-code's 1-based
loop is read as an off-by-one simplification.

The per-``t`` scalar reference over the dense tables is kept as the
oracle.  It runs on the tables the scalar DP builds (``REPRO_SCALAR_DP=1``
or :func:`~repro.core.knapsack.scalar_dp`), which carry no frontier, so
one switch selects the reference for both algorithms.
:func:`unique_allocation_rows` is what the LUT builder calls: it returns
each distinct placement's first row *before* the expensive per-row
evaluation instead of deduplicating after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import PlacementError
from .knapsack import ClusterDpResult, reconstruct_counts


@dataclass(frozen=True)
class CombinedRow:
    """``allocation_state[t]``: the optimal placement at time budget ``t``."""

    t_step: int
    k_hp: int
    k_lp: int
    energy_nj: float
    #: Per-space block counts (SpaceKind -> blocks).
    counts: dict

    @property
    def total_blocks(self) -> int:
        """Total blocks placed (always ``K`` for feasible rows)."""
        return self.k_hp + self.k_lp


def _validate_tables(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
) -> None:
    if total_blocks <= 0:
        raise PlacementError("total block count must be positive")
    if total_blocks > hp.max_blocks:
        raise PlacementError(
            f"HP table only covers {hp.max_blocks} blocks, need {total_blocks}"
        )
    if lp is not None and total_blocks > lp.max_blocks:
        raise PlacementError(
            f"LP table only covers {lp.max_blocks} blocks, need {total_blocks}"
        )
    if lp is not None and lp.t_steps != hp.t_steps:
        raise PlacementError("HP and LP tables must share the time axis")


def set_allocation_state(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
):
    """Build the allocation-state rows for every time budget.

    Returns a list of length ``t_steps + 1`` whose entries are
    :class:`CombinedRow` or ``None`` where no feasible placement exists
    (the grey region of Fig. 6).  ``lp`` may be ``None`` for single-cluster
    architectures (Baseline-/Hybrid-PIM), in which case all blocks go to
    the HP cluster.

    This is the per-budget reference over the dense tables (expanded from
    the frontiers when the tables carry them); the LUT builder calls
    :func:`unique_allocation_rows`.
    """
    _validate_tables(hp, lp, total_blocks)
    rows = []
    for t in range(hp.t_steps + 1):
        if lp is None:
            energy = hp.dp[-1, t, total_blocks]
            if not np.isfinite(energy):
                rows.append(None)
                continue
            counts = reconstruct_counts(hp, t, total_blocks)
            rows.append(
                CombinedRow(
                    t_step=t,
                    k_hp=total_blocks,
                    k_lp=0,
                    energy_nj=float(energy),
                    counts=counts,
                )
            )
            continue

        hp_row = hp.energy_row(t)[: total_blocks + 1]
        lp_row = lp.energy_row(t)[: total_blocks + 1]
        # combined[k_hp] = hp[k_hp] + lp[K - k_hp]
        combined = hp_row + lp_row[::-1]
        best = int(np.argmin(combined))
        min_energy = combined[best]
        if not np.isfinite(min_energy):
            rows.append(None)
            continue
        k_hp = best
        k_lp = total_blocks - best
        counts = reconstruct_counts(hp, t, k_hp)
        counts.update(reconstruct_counts(lp, t, k_lp))
        rows.append(
            CombinedRow(
                t_step=t,
                k_hp=k_hp,
                k_lp=k_lp,
                energy_nj=float(min_energy),
                counts=counts,
            )
        )
    return rows


def unique_allocation_rows(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
):
    """The distinct placements of the allocation state, in budget order.

    Consecutive budgets overwhelmingly select the same placement, so the
    full ``t_steps + 1`` row list collapses to a handful of distinct
    placements.  This returns only the *first* row of each distinct
    per-space count vector — exactly the rows
    :class:`~repro.core.lut.AllocationLUT` would keep after its own
    dedupe — so the LUT builder evaluates dozens of rows instead of tens
    of thousands.
    """
    _validate_tables(hp, lp, total_blocks)
    if hp.frontier is not None and (lp is None or lp.frontier is not None):
        return _unique_rows_of_frontiers(hp, lp, total_blocks)
    # The scalar DP's dense tables carry no frontier.
    first = {}
    for row in set_allocation_state(hp, lp, total_blocks):
        if row is not None:
            first.setdefault(tuple(row.counts.values()), row)
    return list(first.values())


def _unique_rows_of_frontiers(
    hp: ClusterDpResult,
    lp: ClusterDpResult | None,
    total_blocks: int,
):
    """:func:`unique_allocation_rows`, one argmin per breakpoint interval.

    The final rows ``dp[n][.][k]`` of both clusters are step functions, so
    the argmin over ``k_hp`` is constant between consecutive breakpoints
    of their union: it is evaluated once per interval, with the same
    ``hp + lp`` float sums and the same first-minimum rule as the dense
    scan, and each distinct placement keeps its first interval.
    """
    if lp is None:
        tables = [(hp, [total_blocks])]
    else:
        # combined[k_hp] = hp[k_hp] + lp[K - k_hp]
        ks = list(range(total_blocks + 1))
        tables = [(hp, ks), (lp, ks[::-1])]
    offset = hp.t_steps + 1
    flat = [
        _flatten([table.frontier[-1][k] for k in ks], offset)
        for table, ks in tables
    ]
    starts = np.unique(np.concatenate([keys % offset for keys, _, _ in flat]))
    energies = None
    pieces = []
    for (keys, row_energies, _), (_, ks) in zip(flat, tables):
        # Row r's breakpoints are offset by r * (t_steps + 1), so one
        # searchsorted finds every row's piece at every interval start.
        queries = np.arange(len(ks))[:, None] * offset + starts
        index = np.searchsorted(keys, queries, side="right") - 1
        sampled = row_energies[index]
        energies = sampled if energies is None else energies + sampled
        pieces.append(index)
    best = np.argmin(energies, axis=0)
    columns = np.arange(len(starts))
    chosen = [index[best, columns] for index in pieces]
    # Consecutive intervals that pick the same pieces (which fix the
    # split, the energy and the counts) form one run.
    change = np.ones(len(starts), dtype=bool)
    for index in chosen:
        change[1:] |= index[1:] != index[:-1]
    runs = np.nonzero(change)[0]
    energy = energies[best[runs], runs]
    feasible = np.isfinite(energy)
    runs, energy = runs[feasible], energy[feasible]
    # Per run, each cluster's count path in path-tracing order: each
    # cluster's last space first, HP before LP, as the scalar rows.
    counts = [
        sum((path[::-1] for path in run_paths), ())
        for run_paths in zip(
            *(
                [paths[i] for i in index[runs].tolist()]
                for (_, _, paths), index in zip(flat, chosen)
            )
        )
    ]
    kinds = [
        space.kind for table, _ in tables for space in reversed(table.spaces)
    ]
    hp_ks = tables[0][1]
    first = {}
    for start, split, value, key in zip(
        starts[runs].tolist(), best[runs].tolist(), energy.tolist(), counts
    ):
        if key not in first:
            first[key] = CombinedRow(
                t_step=start,
                k_hp=hp_ks[split],
                k_lp=total_blocks - hp_ks[split],
                energy_nj=value,
                counts=dict(zip(kinds, key)),
            )
    return list(first.values())


def _flatten(rows, offset):
    """Concatenate frontier rows into ``(keys, energies, paths)``.

    ``keys`` are the breakpoints of row ``r`` shifted by ``r * offset``
    (``offset`` exceeds every budget), so they stay sorted across rows.
    """
    lengths = [len(starts) for starts, _, _ in rows]
    keys = np.fromiter(
        chain.from_iterable(starts for starts, _, _ in rows), np.int64
    ) + np.repeat(np.arange(len(rows)) * offset, lengths)
    energies = np.fromiter(
        chain.from_iterable(energies for _, energies, _ in rows), np.float64
    )
    paths = list(chain.from_iterable(paths for _, _, paths in rows))
    return keys, energies, paths
