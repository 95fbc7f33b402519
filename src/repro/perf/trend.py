"""Perf-trend comparison: current bench artifacts vs committed baselines.

``repro trend`` reads two directories of ``BENCH_<section>.json``
artifacts — the committed baselines at the repo root and a fresh
``repro bench --out`` run — and compares each section's *headline*
metric (:attr:`BenchSection.headline <repro.perf.bench.BenchSection>`
in :data:`~repro.perf.bench.SECTIONS`; sections with gates only have
none).  Every headline is a higher-is-better ratio of two timings
taken in one process, so a section **regresses** when

    ``current < baseline * (1 - tolerance)``

with the default tolerance of 30%.  A baseline recorded in the other
mode (``--quick`` against a full run) measures a different grid, so it
is refused rather than compared.  The comparison renders as a
markdown delta table for ``$GITHUB_STEP_SUMMARY`` and the CLI exits
non-zero when any section regresses, turning silent perf drift into a
red check without gating on absolute numbers (which vary by runner).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ReproError
from .bench import BENCH_PREFIX, SECTIONS

__all__ = [
    "DEFAULT_TOLERANCE",
    "TrendDelta",
    "compare_reports",
    "render_markdown",
]

#: Fractional slack before a lower headline metric counts as a
#: regression; runner-to-runner jitter stays well inside 30%.
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class TrendDelta:
    """One section's baseline-vs-current headline comparison."""

    #: Bench section name (``lut_build``, ``qos``, ...).
    section: str
    #: The section's headline metric.
    metric: str
    #: Baseline value of the headline metric.
    baseline: float
    #: Current value of the headline metric.
    current: float
    #: ``current / baseline`` (``inf`` when the baseline is zero).
    ratio: float
    #: True when the current value fell below the tolerance band.
    regressed: bool


def _load_artifact(directory: Path, section: str) -> dict | None:
    """One section's artifact, or None when absent."""
    path = directory / f"{BENCH_PREFIX}{section}.json"
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"unreadable bench artifact {path}: {exc}") from exc
    if not isinstance(payload.get("metrics"), dict):
        raise ReproError(f"bench artifact {path} has no metrics object")
    return payload


def compare_reports(
    baseline_dir,
    current_dir,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[TrendDelta]:
    """Compare every section's headline metric across two artifact dirs.

    Sections with no headline or no committed baseline are skipped (new
    sections land green and start gating once their artifact is
    committed); a section with a baseline but no current artifact is an
    error — the bench run silently lost coverage — and so is a baseline
    recorded in the other ``quick`` mode.
    """
    baseline_root = Path(baseline_dir)
    current_root = Path(current_dir)
    if not 0.0 <= tolerance < 1.0:
        raise ReproError(
            f"trend tolerance must be in [0, 1), got {tolerance}"
        )
    deltas = []
    for row in SECTIONS:
        section, metric = row.name, row.headline
        if metric is None:
            continue
        baseline = _load_artifact(baseline_root, section)
        if baseline is None:
            continue
        current = _load_artifact(current_root, section)
        if current is None:
            raise ReproError(
                f"bench section {section!r} has a committed baseline but "
                f"no current artifact in {current_root}"
            )
        if baseline.get("quick") != current.get("quick"):
            raise ReproError(
                f"bench section {section!r} baseline has quick="
                f"{baseline.get('quick')} but the current artifact has "
                f"quick={current.get('quick')}; compare runs of one mode"
            )
        baseline, current = baseline["metrics"], current["metrics"]
        for side, metrics in (("baseline", baseline), ("current", current)):
            if metric not in metrics:
                raise ReproError(
                    f"bench section {section!r} {side} artifact is missing "
                    f"its headline metric {metric!r}"
                )
        base_value = float(baseline[metric])
        cur_value = float(current[metric])
        ratio = cur_value / base_value if base_value else float("inf")
        deltas.append(
            TrendDelta(
                section=section,
                metric=metric,
                baseline=base_value,
                current=cur_value,
                ratio=ratio,
                regressed=cur_value < base_value * (1.0 - tolerance),
            )
        )
    if not deltas:
        raise ReproError(
            f"no bench baselines found in {baseline_root} "
            f"(expected {BENCH_PREFIX}<section>.json files)"
        )
    return deltas


def render_markdown(
    deltas: list[TrendDelta],
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """GitHub-flavoured markdown delta table for the CI step summary."""
    lines = [
        "## Perf trend",
        "",
        f"Regression threshold: headline metric below "
        f"{(1.0 - tolerance) * 100.0:.0f}% of its committed baseline.",
        "",
        "| section | metric | baseline | current | ratio | status |",
        "| --- | --- | ---: | ---: | ---: | --- |",
    ]
    for delta in deltas:
        status = "🔴 regressed" if delta.regressed else "✅ ok"
        lines.append(
            f"| {delta.section} | {delta.metric} "
            f"| {delta.baseline:,.2f} | {delta.current:,.2f} "
            f"| {delta.ratio:.2f}x | {status} |"
        )
    regressions = [d.section for d in deltas if d.regressed]
    lines.append("")
    if regressions:
        lines.append(
            f"**{len(regressions)} section(s) regressed:** "
            + ", ".join(regressions)
        )
    else:
        lines.append("All sections within tolerance.")
    return "\n".join(lines) + "\n"
