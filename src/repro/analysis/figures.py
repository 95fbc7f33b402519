"""Text renderers for the paper's figures.

* :func:`render_fig4` — the six workload patterns as sparkline strips;
* :func:`render_fig5` — grouped savings bars per model and scenario;
* :func:`fig6_series` / :func:`render_fig6` — the memory-utilisation and
  ``E_task`` sweep over ``t_constraint`` (the paper's headline figure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.lut import AllocationLUT
from ..core.spaces import SpaceKind
from ..errors import ConfigurationError
from ..workloads.scenarios import Scenario

if TYPE_CHECKING:  # savings loads the engine; only render_fig5 needs it
    from .savings import SavingsGrid

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values, peak) -> str:
    """A unicode block-strip of ``values`` normalised to ``peak``."""
    chars = []
    for value in values:
        level = 0 if peak == 0 else round(value / peak * (len(_BLOCKS) - 1))
        chars.append(_BLOCKS[max(0, min(level, len(_BLOCKS) - 1))])
    return "".join(chars)


def render_fig4(scenarios) -> str:
    """Sparkline strip chart of load patterns (Fig. 4 and DSL-built)."""
    lines = []
    for sc in scenarios:
        if not isinstance(sc, Scenario):
            raise ConfigurationError("render_fig4 expects Scenario objects")
        if sc.case is not None:
            title = f"Case {sc.case.value} ({sc.case.label:<34})"
        else:
            title = f"{sc.label:<43}"
        lines.append(f"{title} {sparkline(sc.loads, sc.peak)}")
    return "\n".join(lines)


def render_fig5(grid: SavingsGrid) -> str:
    """Grouped text bars: savings per model, scenario and baseline."""
    from .savings import BASELINE_NAMES

    lines = []
    for model in grid.models():
        lines.append(f"== {model} ==")
        for case in grid.cases():
            cell = grid.cell(model, case)
            for name in BASELINE_NAMES:
                saving = cell.savings[name] * 100
                bar = "#" * max(0, round(saving / 2))
                lines.append(
                    f"  Case {case.value}  vs {name:<18} "
                    f"{saving:6.2f}% |{bar}"
                )
        lines.append("")
    return "\n".join(lines).rstrip()


@dataclass(frozen=True)
class Fig6Point:
    """One sweep sample of Fig. 6."""

    t_constraint_ns: float
    utilization: dict
    e_task_nj: float
    e_task_normalized: float


def fig6_series(lut: AllocationLUT, points: int = 120):
    """The Fig. 6 series: utilisation mix and normalised ``E_task``.

    ``E_task`` at each ``t_constraint`` is the placement's dynamic energy
    plus the hold leakage of retaining it across the time slice — the
    paper's constant-``e_i`` convention, under which the curve declines
    quasi-linearly with plateaus and is normalised to the
    peak-performance point.  Placements are selected with the same
    metric, so the series is monotone non-increasing.
    """
    window = lut.t_max_ns
    lo = lut.min_feasible_t_ns
    hi = max(window, lo)
    peak_energy = None
    series = []
    for i in range(points):
        budget = lo + (hi - lo) * i / (points - 1)
        placement = lut.lookup(budget, window_ns=window)
        energy = placement.task_energy_nj(window)
        if peak_energy is None:
            peak_energy = energy
        series.append(
            Fig6Point(
                t_constraint_ns=budget,
                utilization=placement.utilization(),
                e_task_nj=energy,
                e_task_normalized=energy / peak_energy if peak_energy else 0.0,
            )
        )
    return series


_SPACE_ORDER = (
    SpaceKind.HP_SRAM, SpaceKind.HP_MRAM, SpaceKind.LP_SRAM, SpaceKind.LP_MRAM
)
_SPACE_GLYPH = {
    SpaceKind.HP_SRAM: "S",
    SpaceKind.HP_MRAM: "M",
    SpaceKind.LP_SRAM: "s",
    SpaceKind.LP_MRAM: "m",
}


def render_fig6(lut: AllocationLUT, points: int = 48, width: int = 40) -> str:
    """ASCII Fig. 6: per-sample utilisation strip plus the E_task curve.

    Each row is one ``t_constraint`` sample; the strip shows the block mix
    (S=HP-SRAM, M=HP-MRAM, s=LP-SRAM, m=LP-MRAM) and the right column the
    normalised task energy.
    """
    series = fig6_series(lut, points=points)
    lines = [
        "t_constraint (ms)  placement mix "
        "(S=HP-SRAM M=HP-MRAM s=LP-SRAM m=LP-MRAM)   E_task (norm.)"
    ]
    for point in series:
        strip = []
        for kind in _SPACE_ORDER:
            share = point.utilization.get(kind, 0.0)
            strip.append(_SPACE_GLYPH[kind] * round(share * width))
        strip_text = "".join(strip)[:width].ljust(width)
        lines.append(
            f"{point.t_constraint_ns / 1e6:>14.2f}     |{strip_text}|"
            f"   {point.e_task_normalized:8.3f}"
        )
    return "\n".join(lines)
