"""Algorithm 1: per-cluster bottom-up dynamic programming.

Solves the paper's hybrid unbounded / multiple-choice knapsack for one
cluster: place exactly ``k`` weight blocks into the cluster's storage
spaces so that the summed computation time stays within the budget ``t``
while energy is minimal.  The recurrence (Eq. 2 of the paper)::

    dp[i][t][k] = dp[i-1][t][k]                            if t_i * 1 > t
    dp[i][t][k] = min(dp[i-1][t][k],
                      dp[i][t - t_i][k - 1] + e_i)         otherwise

``count[i][t][k]`` traces the number of blocks taken from space ``i`` on
the optimal path (the paper's path-tracing variable); it also lets us
enforce per-space capacity limits, which the hardware imposes even though
the paper's formulation leaves them implicit.

Time is discretised to ``time_step_ns``; per-space step counts are rounded
*up*, so a placement the DP declares feasible is feasible in continuous
time too (the discretisation is conservative).

Every row ``dp[i][.][k]`` is a step function of the budget ``t`` with a
handful of pieces (at most ~50 at the CLI default resolution, against
thousands of time steps), so the production path never builds the dense
``(t, k)`` tables.  It keeps each row as a *frontier*: sorted breakpoints,
each holding the energy and the per-space count path that apply from it
on.  The recurrence becomes a min-plus merge of shifted step functions,
``dp[i][t - t_i][k - 1] + e_i`` being the ``k - 1`` row shifted right by
``t_i`` and raised by ``e_i``.  Each merge does the dense recurrence's
float operations once per piece, with the same strict ``<`` and, for
bounded spaces, the same ascending take-count order.

The *scalar* reference — a paper-faithful per-element translation of the
recurrence over the dense tables — is the oracle.  It is selected with
``REPRO_SCALAR_DP=1`` (or the :func:`scalar_dp` context manager) and is
the baseline of the ``repro bench`` perf gate; differential tests expand
every frontier to the dense ``dp``/``count`` and compare them with it
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, PlacementError
from ..obs.tracing import span as _span
from ..reference import SCALAR_DP

#: Process-wide count of DP table constructions, for cache verification
#: (a warm persistent-cache run must leave this untouched).
_DP_BUILDS = 0

#: Whether the scalar reference DP is selected (``REPRO_SCALAR_DP``).
use_scalar_dp = SCALAR_DP.enabled
#: Force the scalar (or frontier) DP for the enclosed block.
scalar_dp = SCALAR_DP.forced


def dp_build_count() -> int:
    """How many DP tables this process has actually computed."""
    return _DP_BUILDS


@dataclass(frozen=True)
class ClusterDpResult:
    """The DP table of one cluster, as breakpoint frontiers.

    ``frontier[i][k]`` is the row ``dp[i][.][k]`` (the first ``i``
    spaces, exactly ``k`` blocks) as a step function of the budget:
    ``(starts, energies, paths)``, where piece ``j`` applies from budget
    ``starts[j]`` up to the next start, ``energies[j]`` is its minimum
    energy (nJ, ``inf`` where infeasible) and ``paths[j]`` its per-space
    block counts for spaces ``1 .. i``.  The scalar reference fills the
    dense tables instead and leaves ``frontier`` as ``None``.

    ``dp[i, t, k]`` and ``count[i, t, k]`` (how many of the ``k`` blocks
    the optimal path put in space ``i``) are the dense view, expanded
    from the frontier the first time a caller asks for it.
    """

    spaces: tuple
    time_step_ns: float
    step_counts: tuple
    #: Largest representable time budget, in steps.
    t_steps: int
    #: ``K``: the block-count dimension of the table.
    max_blocks: int
    frontier: tuple | None = None
    #: Dense ``(dp, count)``: set by the scalar reference, else lazily
    #: expanded from ``frontier``.
    dense: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def dp(self) -> np.ndarray:
        """Dense ``dp[i, t, k]`` (expanded on first use)."""
        return self._dense()[0]

    @property
    def count(self) -> np.ndarray:
        """Dense ``count[i, t, k]`` (expanded on first use)."""
        return self._dense()[1]

    def energy_row(self, t_step: int) -> np.ndarray:
        """``dp[n][t][:]`` — energies over all block counts at budget ``t``."""
        return self.dp[-1, t_step, :]

    def _dense(self) -> tuple:
        if self.dense is None:
            object.__setattr__(self, "dense", _expand(self))
        return self.dense


def _step_count(time_ns: float, time_step_ns: float) -> int:
    """Quantise a block time to steps (round-to-nearest, minimum 1).

    Rounding to nearest keeps the *accumulated* quantisation error of a
    many-block placement near zero; rounding up would inflate task times
    by up to ``K`` steps.  Runtime deadline checks allow one step of
    slack to absorb the residual error.
    """
    steps = round(time_ns / time_step_ns)
    return max(1, steps)


def knapsack_min_energy(
    spaces,
    t_steps: int,
    max_blocks: int,
    time_step_ns: float,
) -> ClusterDpResult:
    """Run Algorithm 1 over one cluster's storage spaces.

    Parameters
    ----------
    spaces:
        The cluster's :class:`~repro.core.spaces.StorageSpace` list (the
        paper's ``i = 1 .. n/2`` iteration space).
    t_steps:
        Number of discrete time steps spanning the time-slice range ``T``.
    max_blocks:
        ``K`` for this cluster (every block could land here).
    time_step_ns:
        Duration of one step.
    """
    if not spaces:
        raise ConfigurationError("knapsack needs at least one storage space")
    if t_steps <= 0 or max_blocks <= 0 or time_step_ns <= 0:
        raise ConfigurationError("t_steps, max_blocks and step must be positive")

    global _DP_BUILDS
    _DP_BUILDS += 1

    step_counts = tuple(
        _step_count(space.time_per_block_ns, time_step_ns) for space in spaces
    )
    frontier = dense = None
    with _span(
        "core.dp_build", spaces=len(spaces), t_steps=t_steps, blocks=max_blocks,
        scalar=use_scalar_dp(),
    ):
        if use_scalar_dp():
            dense = _dp_scalar(spaces, t_steps, max_blocks, step_counts)
        else:
            frontier = _dp_frontier(spaces, t_steps, max_blocks, step_counts)
    return ClusterDpResult(
        spaces=tuple(spaces),
        time_step_ns=time_step_ns,
        step_counts=step_counts,
        t_steps=t_steps,
        max_blocks=max_blocks,
        frontier=frontier,
        dense=dense,
    )


def _dp_frontier(spaces, t_steps, max_blocks, step_counts):
    """The recurrence as min-plus merges of shifted step functions.

    Each candidate is a whole row shifted right by the time it adds and
    raised by the energy it adds, with the same float operations, the
    same strict ``<`` and the same ascending take-count order as the
    scalar reference, so the expanded tables come out bit-identical.
    """
    inf = float("inf")
    # Base condition (Algorithm 1, line 3): zero blocks cost zero energy.
    level = [([0], [0.0], [()])] + [([0], [inf], [()])] * max_blocks
    levels = [level]
    for ti, space in zip(step_counts, spaces):
        ei = space.energy_per_block_nj
        cap = space.capacity_blocks
        prev = level
        # Carry the previous space's solutions (Algorithm 1, lines 12-13).
        level = [
            (starts, energies, [path + (0,) for path in paths])
            for starts, energies, paths in prev
        ]
        if cap >= max_blocks:
            # Paper-faithful unbounded recurrence: the capacity can never
            # bind, so dp[i][t-ti][k-1] + e_i extends any optimal prefix.
            for k in range(1, max_blocks + 1):
                starts, energies, paths = level[k - 1]
                candidate = (
                    [s + ti for s in starts],
                    [e + ei for e in energies],
                    [path[:-1] + (path[-1] + 1,) for path in paths],
                )
                level[k] = _min_merge(level[k], candidate, t_steps)
        else:
            # Bounded variant: extending the *minimum-energy* path would
            # lose capacity-feasible but energy-dominated prefixes, so
            # take-j choices extend dp[i-1] directly.
            for k in range(1, max_blocks + 1):
                row = level[k]
                for j in range(1, min(cap, k) + 1):
                    shift = j * ti
                    if shift > t_steps:
                        break
                    extend = j * ei
                    starts, energies, paths = prev[k - j]
                    candidate = (
                        [s + shift for s in starts],
                        [e + extend for e in energies],
                        [path + (j,) for path in paths],
                    )
                    row = _min_merge(row, candidate, t_steps)
                level[k] = row
        levels.append(level)
    return tuple(levels)


def _min_merge(base, candidate, t_steps):
    """Pointwise ``candidate < base ? candidate : base`` of two rows.

    ``candidate`` is undefined before its first start (a shifted row);
    pieces starting past ``t_steps`` are ignored.  Adjacent pieces with
    the same energy and path are coalesced.
    """
    base_starts, base_energies, base_paths = base
    cand_starts, cand_energies, cand_paths = candidate
    end = t_steps + 1
    if cand_starts[0] >= end:
        return base
    out_starts, out_energies, out_paths = [], [], []
    n_base, n_cand = len(base_starts), len(cand_starts)
    b, c = 0, -1
    t = 0
    while True:
        if c >= 0 and cand_energies[c] < base_energies[b]:
            energy, path = cand_energies[c], cand_paths[c]
        else:
            energy, path = base_energies[b], base_paths[b]
        if not out_paths or energy != out_energies[-1] or path != out_paths[-1]:
            out_starts.append(t)
            out_energies.append(energy)
            out_paths.append(path)
        next_base = base_starts[b + 1] if b + 1 < n_base else end
        next_cand = cand_starts[c + 1] if c + 1 < n_cand else end
        t = min(next_base, next_cand)
        if t >= end:
            return out_starts, out_energies, out_paths
        if next_base == t:
            b += 1
        if next_cand == t:
            c += 1


def _expand(result: ClusterDpResult) -> tuple:
    """Dense ``(dp, count)`` in the ``[i, t, k]`` orientation."""
    shape = (len(result.frontier), result.max_blocks + 1, result.t_steps + 1)
    dp = np.empty(shape)
    count = np.zeros(shape, dtype=np.int32)
    for i, level in enumerate(result.frontier):
        for k, (starts, energies, paths) in enumerate(level):
            ends = starts[1:] + [result.t_steps + 1]
            for start, stop, energy, path in zip(starts, ends, energies, paths):
                dp[i, k, start:stop] = energy
                if path:
                    count[i, k, start:stop] = path[-1]
    return dp.transpose(0, 2, 1), count.transpose(0, 2, 1)


def _dp_scalar(spaces, t_steps, max_blocks, step_counts):
    """Per-element reference translation of the recurrence (Eq. 2).

    Returns the dense ``(dp, count)`` tables in the ``[i, t, k]``
    orientation.
    """
    n = len(spaces)
    # Stored (space, k, t) so each budget row dp[i, k, :] is contiguous;
    # the public dp[i, t, k] orientation is a transposed view of this.
    dp = np.full((n + 1, max_blocks + 1, t_steps + 1), np.inf)
    count = np.zeros((n + 1, max_blocks + 1, t_steps + 1), dtype=np.int32)
    # Base condition (Algorithm 1, line 3): zero blocks cost zero energy.
    dp[:, 0, :] = 0.0
    for i, space in enumerate(spaces, start=1):
        ti = step_counts[i - 1]
        ei = space.energy_per_block_nj
        cap = space.capacity_blocks
        dp[i] = dp[i - 1]
        count[i] = 0
        cur, cnt, prev = dp[i], count[i], dp[i - 1]
        if cap >= max_blocks:
            if ti > t_steps:
                continue
            for k in range(1, max_blocks + 1):
                for t in range(ti, t_steps + 1):
                    candidate = cur[k - 1, t - ti] + ei
                    if candidate < cur[k, t]:
                        cur[k, t] = candidate
                        cnt[k, t] = cnt[k - 1, t - ti] + 1
        else:
            for k in range(1, max_blocks + 1):
                for j in range(1, min(cap, k) + 1):
                    shift = j * ti
                    if shift > t_steps:
                        break
                    extend = j * ei
                    for t in range(shift, t_steps + 1):
                        candidate = prev[k - j, t - shift] + extend
                        if candidate < cur[k, t]:
                            cur[k, t] = candidate
                            cnt[k, t] = j
    return dp.transpose(0, 2, 1), count.transpose(0, 2, 1)


def reconstruct_counts(result: ClusterDpResult, t_step: int, blocks: int):
    """Per-space block counts of the optimal path at ``(t_step, blocks)``.

    Walks the ``count`` trace from the last space backwards: at each space
    the trace says how many blocks the optimal path placed there; the
    remaining blocks and time budget move to the previous space.
    """
    if not 0 <= t_step <= result.t_steps:
        raise PlacementError(f"t_step {t_step} outside table")
    if not 0 <= blocks <= result.max_blocks:
        raise PlacementError(f"block count {blocks} outside table")
    if not np.isfinite(result.dp[-1, t_step, blocks]):
        raise PlacementError(
            f"state (t={t_step}, k={blocks}) is infeasible"
        )
    counts = {}
    t, k = t_step, blocks
    for i in range(len(result.spaces), 0, -1):
        taken = int(result.count[i, t, k])
        counts[result.spaces[i - 1].kind] = taken
        t -= taken * result.step_counts[i - 1]
        k -= taken
    if k != 0:
        raise PlacementError(
            f"reconstruction lost {k} blocks (inconsistent count trace)"
        )
    return counts


def cluster_time_ns(result: ClusterDpResult, counts: dict) -> float:
    """Continuous-time completion time of a per-space placement."""
    total = 0.0
    for space in result.spaces:
        total += counts.get(space.kind, 0) * space.time_per_block_ns
    return total


def cluster_dynamic_energy_nj(result: ClusterDpResult, counts: dict) -> float:
    """Continuous-time dynamic energy of a per-space placement (per task)."""
    total = 0.0
    for space in result.spaces:
        total += counts.get(space.kind, 0) * space.dynamic_energy_per_block_nj
    return total
