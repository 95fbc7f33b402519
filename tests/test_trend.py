"""Perf-trend comparison: ``repro trend`` against committed baselines.

The trend gate is CI's relative-drift watchdog: it must stay green when
a fresh bench run sits inside the tolerance band of the committed
``BENCH_*.json`` baselines and go red (exit 2) the moment any section's
headline metric drops past it — exercised here with synthetic artifact
directories, never a real bench run.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.perf import (
    DEFAULT_TOLERANCE,
    SECTIONS,
    compare_reports,
    render_markdown,
)

#: Each section's headline metric, from the bench section table.
HEADLINE_METRICS = {section.name: section.headline for section in SECTIONS}


def write_artifacts(directory, values):
    """One ``BENCH_<section>.json`` per entry of ``{section: value}``."""
    directory.mkdir(parents=True, exist_ok=True)
    for section, value in values.items():
        metric = HEADLINE_METRICS[section]
        (directory / f"BENCH_{section}.json").write_text(json.dumps({
            "bench": section, "metrics": {metric: value},
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
        (baseline / "BENCH_serve.json").unlink()
        sections = {d.section for d in compare_reports(baseline, current)}
        assert "serve" not in sections
        assert len(sections) == len(HEADLINE_METRICS) - 1

    def test_missing_current_section_is_an_error(self, dirs):
        baseline, current = dirs
        (current / "BENCH_qos.json").unlink()
        with pytest.raises(ReproError, match="no current artifact"):
            compare_reports(baseline, current)

    def test_missing_headline_metric_is_an_error(self, dirs):
        baseline, current = dirs
        (current / "BENCH_qos.json").write_text(json.dumps({
            "bench": "qos", "metrics": {"requests_per_s": 1.0},
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
