"""Perf-trend comparison: ``repro trend`` against committed baselines.

The trend gate is CI's relative-drift watchdog: it must stay green when
a fresh bench run sits inside the tolerance band of the committed
``BENCH_*.json`` baselines and go red (exit 2) the moment any section's
headline metric drops past it — exercised here with synthetic artifact
directories, never a real bench run.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.perf import (
    DEFAULT_TOLERANCE,
    SECTIONS,
    compare_reports,
    render_markdown,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Each headlined section's headline metric, from the bench section table.
HEADLINE_METRICS = {
    section.name: section.headline
    for section in SECTIONS
    if section.headline is not None
}


def write_artifacts(directory, values, quick=True):
    """One ``BENCH_<section>.json`` per entry of ``{section: value}``."""
    directory.mkdir(parents=True, exist_ok=True)
    for section, value in values.items():
        metric = HEADLINE_METRICS[section]
        (directory / f"BENCH_{section}.json").write_text(json.dumps({
            "bench": section, "quick": quick, "metrics": {metric: value},
        }))


@pytest.fixture
def dirs(tmp_path):
    baseline = {section: 10.0 for section in HEADLINE_METRICS}
    write_artifacts(tmp_path / "baseline", baseline)
    write_artifacts(tmp_path / "current", baseline)
    return tmp_path / "baseline", tmp_path / "current"


class TestCompare:
    def test_equal_reports_are_green(self, dirs):
        deltas = compare_reports(*dirs)
        assert len(deltas) == len(HEADLINE_METRICS)
        assert not any(delta.regressed for delta in deltas)
        assert all(delta.ratio == 1.0 for delta in deltas)

    def test_within_tolerance_is_green(self, dirs):
        baseline, current = dirs
        write_artifacts(
            current, {section: 7.1 for section in HEADLINE_METRICS}
        )
        assert not any(
            delta.regressed for delta in compare_reports(baseline, current)
        )

    def test_synthetic_30pct_regression_is_red(self, dirs):
        baseline, current = dirs
        write_artifacts(current, {"qos": 6.9})
        deltas = compare_reports(baseline, current)
        regressed = [d.section for d in deltas if d.regressed]
        assert regressed == ["qos"]

    def test_improvements_never_regress(self, dirs):
        baseline, current = dirs
        write_artifacts(
            current, {section: 100.0 for section in HEADLINE_METRICS}
        )
        assert not any(
            delta.regressed for delta in compare_reports(baseline, current)
        )

    def test_missing_baseline_section_is_skipped(self, dirs):
        baseline, current = dirs
        (baseline / "BENCH_store.json").unlink()
        sections = {d.section for d in compare_reports(baseline, current)}
        assert "store" not in sections
        assert len(sections) == len(HEADLINE_METRICS) - 1

    def test_gates_only_section_is_skipped(self, dirs):
        """``obs`` has gates and no headline: its artifacts are never
        compared, whatever they hold."""
        gates_only = [s.name for s in SECTIONS if s.headline is None]
        assert gates_only == ["obs"]
        for directory in dirs:
            (directory / "BENCH_obs.json").write_text(json.dumps({
                "bench": "obs", "quick": True,
                "metrics": {"disabled_overhead": 0.001},
            }))
        sections = {d.section for d in compare_reports(*dirs)}
        assert sections == set(HEADLINE_METRICS)

    def test_baseline_from_the_other_mode_is_an_error(self, dirs):
        """A ``--quick`` run measures a smaller grid than a full one, so
        the two never compare, even when the numbers would pass."""
        baseline, current = dirs
        write_artifacts(current, {"qos": 10.0}, quick=False)
        with pytest.raises(ReproError, match="quick=True .* quick=False"):
            compare_reports(baseline, current)

    def test_missing_current_section_is_an_error(self, dirs):
        baseline, current = dirs
        (current / "BENCH_qos.json").unlink()
        with pytest.raises(ReproError, match="no current artifact"):
            compare_reports(baseline, current)

    def test_missing_headline_metric_is_an_error(self, dirs):
        baseline, current = dirs
        (current / "BENCH_qos.json").write_text(json.dumps({
            "bench": "qos", "quick": True,
            "metrics": {"requests_per_s": 1.0},
        }))
        with pytest.raises(ReproError, match="headline metric"):
            compare_reports(baseline, current)

    def test_empty_baseline_dir_is_an_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        (tmp_path / "cur").mkdir()
        with pytest.raises(ReproError, match="no bench baselines"):
            compare_reports(tmp_path / "empty", tmp_path / "cur")

    def test_bad_tolerance_is_an_error(self, dirs):
        with pytest.raises(ReproError, match="tolerance"):
            compare_reports(*dirs, tolerance=1.5)


class TestMarkdown:
    def test_table_carries_every_section(self, dirs):
        deltas = compare_reports(*dirs)
        table = render_markdown(deltas, DEFAULT_TOLERANCE)
        for section in HEADLINE_METRICS:
            assert f"| {section} |" in table
        assert "All sections within tolerance." in table

    def test_regression_is_called_out(self, dirs):
        baseline, current = dirs
        write_artifacts(current, {"qos": 1.0})
        table = render_markdown(compare_reports(baseline, current))
        assert "regressed" in table
        assert "qos" in table


class TestCli:
    def test_green_run_exits_0_and_writes_summary(self, dirs, tmp_path,
                                                  capsys):
        baseline, current = dirs
        summary = tmp_path / "summary.md"
        code = main([
            "trend", "--baseline", str(baseline),
            "--current", str(current), "--summary", str(summary),
        ])
        assert code == 0
        assert "Perf trend" in capsys.readouterr().out
        assert "All sections within tolerance." in summary.read_text()

    def test_regression_exits_2_with_delta_table(self, dirs, capsys):
        baseline, current = dirs
        write_artifacts(current, {"runtime": 6.9})
        code = main([
            "trend", "--baseline", str(baseline), "--current", str(current),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "perf trend failed" in err
        assert "runtime" in err

    def test_wider_tolerance_turns_the_same_delta_green(self, dirs):
        baseline, current = dirs
        write_artifacts(current, {"runtime": 6.9})
        code = main([
            "trend", "--baseline", str(baseline), "--current", str(current),
            "--tolerance", "0.5",
        ])
        assert code == 0


class TestCommittedBaselines:
    def test_one_baseline_per_headlined_section(self):
        """Every section with a trend headline has a baseline at the
        repo root, and no ``BENCH_<name>.json`` there names a deleted
        section: ``compare_reports`` ignores orphans, so a stale one
        would otherwise linger unnoticed.  A gates-only section's
        artifact is git-ignored, since nothing reads it."""
        present = {p.name for p in REPO_ROOT.glob("BENCH_*.json")}
        headlined = {f"BENCH_{name}.json" for name in HEADLINE_METRICS}
        assert headlined <= present
        assert present <= {f"BENCH_{s.name}.json" for s in SECTIONS}
        ignored = (REPO_ROOT / ".gitignore").read_text().split()
        for section in SECTIONS:
            if section.headline is None:
                assert f"/BENCH_{section.name}.json" in ignored

    def test_committed_baselines_compare_green_against_themselves(self):
        deltas = compare_reports(REPO_ROOT, REPO_ROOT)
        assert {d.section for d in deltas} == set(HEADLINE_METRICS)
        assert all(d.ratio == 1.0 for d in deltas)
