"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.perf import SECTIONS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every ``(section name, gate)`` row of the bench table.
GATES = [
    pytest.param(section.name, gate, id=f"{section.name}.{gate.metric}")
    for section in SECTIONS
    for gate in section.gates
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestTables:
    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        assert "HH-PIM" in out and "Baseline-PIM" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2")
        assert "14,998" in out and "Rocket" in out

    def test_table3(self, capsys):
        out = run_cli(capsys, "table3")
        assert "2.62" in out and "10.68" in out

    def test_table4(self, capsys):
        out = run_cli(capsys, "table4")
        assert "ResNet-18" in out and "29,580,000" in out

    def test_table5(self, capsys):
        out = run_cli(capsys, "table5")
        assert "428.48" in out and "23.29" in out

    def test_list(self, capsys):
        out = run_cli(capsys, "list")
        assert "architectures:" in out
        assert "6: Random Workload" in out
        assert "queue disciplines:" in out
        assert "edf" in out
        assert "autoscalers:" in out
        assert "queue_depth" in out


class TestFigures:
    def test_fig4(self, capsys):
        out = run_cli(capsys, "fig4", "--slices", "20")
        assert out.count("Case") == 6

    def test_fig6_small(self, capsys):
        out = run_cli(capsys, "fig6", "--blocks", "16", "--steps", "1500",
                      "--points", "6")
        assert "E_task" in out
        assert out.count("|") >= 12  # placement strips

    def test_run_small(self, capsys):
        out = run_cli(capsys, "run", "--case", "1", "--slices", "4",
                      "--blocks", "16", "--steps", "1500")
        assert "HH-PIM" in out
        assert "met" in out

    def test_run_single_arch(self, capsys):
        out = run_cli(capsys, "run", "--case", "1", "--slices", "4",
                      "--blocks", "16", "--steps", "1500",
                      "--arch", "hh-pim")
        assert "HH-PIM" in out
        assert "Baseline-PIM" not in out


class TestJsonAndSweep:
    def test_run_json(self, capsys):
        out = run_cli(capsys, "run", "--case", "1", "--slices", "4",
                      "--blocks", "16", "--steps", "1500", "--json")
        rows = json.loads(out)
        assert {row["arch"] for row in rows} >= {"HH-PIM", "Baseline-PIM"}
        for row in rows:
            assert row["scenario"] == "case1"
            assert row["total_energy_nj"] > 0

    def test_sweep_table_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        out = run_cli(capsys, "sweep", "--model", "EfficientNet-B0",
                      "--case", "1", "--case", "2",
                      "--arch", "HH-PIM", "--arch", "Hybrid-PIM",
                      "--slices", "4", "--blocks", "16", "--steps", "1500",
                      "--csv", str(csv_path))
        assert "aggregate by arch" in out
        assert "LUTs built" in out
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2 archs x 2 cases

    def test_sweep_json(self, capsys):
        out = run_cli(capsys, "sweep", "--model", "EfficientNet-B0",
                      "--case", "1", "--arch", "HH-PIM",
                      "--slices", "4", "--blocks", "16", "--steps", "1500",
                      "--json")
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["arch"] == "HH-PIM"

    def test_run_json_records(self, capsys):
        out = run_cli(capsys, "run", "--case", "1", "--slices", "4",
                      "--blocks", "16", "--steps", "1500",
                      "--arch", "HH-PIM", "--json", "--records")
        rows = json.loads(out)
        assert len(rows[0]["records"]) == 4
        record = rows[0]["records"][0]
        assert "placement_counts" in record and "total_energy_nj" in record


class TestFleetAndScenarios:
    def test_fleet_four_devices(self, capsys):
        out = run_cli(capsys, "fleet", "--devices", "4",
                      "--dispatch", "least_loaded", "--scenario", "bursty",
                      "--slices", "6", "--blocks", "16", "--steps", "1500")
        assert "fleet of 4 (least_loaded)" in out
        assert out.count("HH-PIM") >= 4

    def test_fleet_json(self, capsys):
        out = run_cli(capsys, "fleet", "--devices", "2",
                      "--scenario", "case1", "--slices", "4",
                      "--blocks", "16", "--steps", "1500", "--json")
        data = json.loads(out)
        assert data["devices"] == 2
        assert len(data["device_results"]) == 2

    def test_qos_human_output(self, capsys):
        out = run_cli(capsys, "qos", "--devices", "1", "--max-devices", "3",
                      "--autoscaler", "queue_depth", "--scenario", "bursty",
                      "--slices", "10", "--blocks", "16", "--steps", "1500")
        assert "SLO attainment" in out
        assert "p95 latency (ms)" in out
        assert "fleet" in out
        assert "scenario bursty" in out

    def test_qos_json(self, capsys):
        out = run_cli(capsys, "qos", "--devices", "2", "--scenario", "case3",
                      "--discipline", "edf", "--slices", "8",
                      "--blocks", "16", "--steps", "1500", "--json")
        data = json.loads(out)
        assert data["discipline"] == "edf"
        assert data["completed"] + data["unfinished"] == data["total_requests"]
        assert len(data["slices"]) >= 8
        assert "p99_ns" in data and "slo_attainment" in data
        assert "device_records" not in data

    def test_qos_json_records(self, capsys):
        out = run_cli(capsys, "qos", "--devices", "2", "--scenario", "case1",
                      "--slices", "5", "--blocks", "16", "--steps", "1500",
                      "--json", "--records")
        data = json.loads(out)
        assert set(data["device_records"]) == {"0", "1"}
        record = data["device_records"]["0"][0]
        assert "placement_counts" in record and "total_energy_nj" in record

    def test_qos_unknown_discipline_exits_2(self, capsys):
        code = main(["qos", "--discipline", "lifo",
                     "--blocks", "16", "--steps", "1500"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "lifo" in captured.err

    def test_scenarios_preview(self, capsys):
        out = run_cli(capsys, "scenarios", "--slices", "20")
        for key in ("case1", "case6", "poisson", "bursty", "diurnal"):
            assert key in out
        assert "mean" in out

    def test_scenarios_only(self, capsys):
        out = run_cli(capsys, "scenarios", "--only", "diurnal",
                      "--slices", "16")
        assert out.strip().startswith("diurnal")
        assert "case1" not in out


class TestErrorExit:
    def test_bench_quick_writes_artifacts(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_LUT_CACHE", str(tmp_path / "cache"))
        out = run_cli(capsys, "bench", "--quick", "--blocks", "12",
                      "--steps", "600", "--out", str(tmp_path))
        assert "speedup" in out
        names = {path.name for path in tmp_path.glob("BENCH_*.json")}
        assert len(SECTIONS) == 7
        assert names == {f"BENCH_{section.name}.json" for section in SECTIONS}
        runtime = json.loads((tmp_path / "BENCH_runtime.json").read_text())
        assert runtime["metrics"]["speedup"] > 0
        assert runtime["metrics"]["slices"] > 0
        qos = json.loads((tmp_path / "BENCH_qos.json").read_text())
        assert qos["metrics"]["requests_per_s"] > 0
        assert qos["metrics"]["scalar_requests_per_s"] > 0
        assert qos["metrics"]["speedup"] > 0
        assert (
            qos["metrics"]["completed"] + qos["metrics"]["unfinished"]
            == qos["metrics"]["requests"]
        )
        payload = json.loads((tmp_path / "BENCH_lut_build.json").read_text())
        assert payload["bench"] == "lut_build"
        assert payload["quick"] is True
        assert payload["cores"] == os.cpu_count()
        assert payload["metrics"]["speedup"] > 0
        store = json.loads((tmp_path / "BENCH_store.json").read_text())
        assert store["metrics"]["warm_runs_executed"] == 0
        assert store["metrics"]["warm_store_hits"] == store["metrics"]["runs"]

    @pytest.mark.parametrize("section, gate", GATES)
    def test_bench_gate_passes_at_threshold_fails_past_it(
        self, capsys, tmp_path, monkeypatch, section, gate
    ):
        """``--gate`` applies each table row to the report: a metric on
        its threshold passes, one ulp past it exits 2 naming it."""
        # The committed baselines stand in for a bench run (a gates-only
        # section has none, so its summary metrics read 1), with every
        # gated metric moved onto its threshold.
        report = {"meta": {}}
        for row in SECTIONS:
            path = REPO_ROOT / f"BENCH_{row.name}.json"
            metrics = (
                json.loads(path.read_text())["metrics"]
                if row.headline is not None
                else dict.fromkeys(row.summary, 1.0)
            )
            report[row.name] = dict(
                metrics, **{g.metric: g.threshold for g in row.gates}
            )
        monkeypatch.setattr("repro.perf.run_bench", lambda **_: report)
        argv = ["bench", "--gate", "--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()

        past = -math.inf if gate.kind == "min" else math.inf
        report[section][gate.metric] = math.nextafter(gate.threshold, past)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "perf gate failed" in err
        assert err.count("needs") == 1
        assert f"{section}.{gate.metric} is" in err

    def test_bench_gates_are_the_ci_thresholds(self):
        assert {
            f"{section.name}.{gate.metric}": (gate.kind, gate.threshold)
            for section in SECTIONS
            for gate in section.gates
        } == {
            "lut_build.speedup": ("min", 1.0),
            "runtime.speedup": ("min", 1.0),
            "qos.requests_per_s": ("min", 200.0),
            "qos.speedup": ("min", 5.0),
            "store.resume_speedup": ("min", 2.0),
            "dist.speedup": ("min", 2.5),
            "obs.disabled_overhead": ("max", 0.05),
        }

    def test_sweep_spill_needs_store(self, capsys):
        code = main(["sweep", "--model", "EfficientNet-B0", "--case", "1",
                     "--blocks", "16", "--steps", "1500", "--slices", "2",
                     "--spill"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--spill needs --store" in captured.err

    def test_sweep_shard_validated_up_front(self, capsys):
        """Bad ``--shard`` specs fail before any compute starts."""
        for bad in ("2/2", "3/2", "-1/4", "0/0", "0/-1", "banana", "1"):
            code = main(["sweep", "--model", "EfficientNet-B0",
                         "--case", "1", "--blocks", "16", "--steps", "1500",
                         "--slices", "2", f"--shard={bad}"])
            captured = capsys.readouterr()
            assert code == 2, bad
            assert captured.err.startswith("error:")
            assert "Traceback" not in captured.err

    def test_sweep_spill_through_store(self, capsys, tmp_path):
        out = run_cli(capsys, "sweep", "--model", "EfficientNet-B0",
                      "--case", "1", "--blocks", "16", "--steps", "1500",
                      "--slices", "2", "--store", str(tmp_path / "runs"),
                      "--spill", "--csv", str(tmp_path / "rows.csv"))
        assert "runs" in out
        assert (tmp_path / "rows.csv").read_text().count("\n") > 1

    def test_cache_info_and_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LUT_CACHE", str(tmp_path / "cache"))
        run_cli(capsys, "run", "--case", "1", "--slices", "2",
                "--blocks", "12", "--steps", "600", "--arch", "HH-PIM")
        out = run_cli(capsys, "cache", "info")
        assert str(tmp_path / "cache") in out
        assert "entries: 2" in out  # the runtime + the t-slice sizing
        out = run_cli(capsys, "cache", "clear")
        assert "removed 2" in out
        out = run_cli(capsys, "cache", "info")
        assert "entries: 0" in out

    def test_no_cache_skips_the_disk(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LUT_CACHE", str(tmp_path / "cache"))
        run_cli(capsys, "run", "--case", "1", "--slices", "2",
                "--blocks", "12", "--steps", "600", "--arch", "HH-PIM",
                "--no-cache")
        assert not list((tmp_path / "cache").glob("**/*.pkl"))

    def test_unknown_model_exits_2_without_traceback(self, capsys):
        code = main(["run", "--model", "NoSuchModel",
                     "--blocks", "16", "--steps", "1500"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "NoSuchModel" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_arch_exits_2(self, capsys):
        code = main(["run", "--arch", "NoSuchFabric",
                     "--blocks", "16", "--steps", "1500"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_python_m_repro_clean_error(self):
        """``python -m repro`` must exit non-zero with one clean line."""
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--model", "NoSuchModel",
             "--blocks", "16", "--steps", "1500"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestVersionAndInterrupt:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert repro.__version__ in out

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        from repro import cli

        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "list", interrupt)
        assert main(["list"]) == 130
        captured = capsys.readouterr()
        assert captured.err.strip() == "interrupted"
        assert "Traceback" not in captured.err

    def test_closed_stdout_exits_141(self, tmp_path):
        """A reader that hangs up (``| head``) gets 128+SIGPIPE, no traceback."""
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        trace = tmp_path / "t.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--case", "1",
             "--slices", "4", "--blocks", "16", "--steps", "1500",
             "--json", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        # Closed before the child has even imported the engine, so its
        # first write hits a pipe with no reader.
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert b"Traceback" not in err
        assert b"BrokenPipe" not in err
        assert json.loads(trace.read_text())


class TestServeCli:
    """The client verbs against an in-process daemon on an ephemeral port."""

    @pytest.fixture
    def daemon(self):
        from repro.api import Engine
        from repro.service import ServeDaemon

        serving = ServeDaemon(port=0, engine=Engine(use_disk_cache=False),
                              log=lambda line: None)
        serving.start()
        yield serving
        serving.initiate_shutdown()
        serving._shutdown_thread.join(timeout=30)

    def submit_args(self, daemon, *extra):
        return ["submit", "--port", str(daemon.port), "--scenario", "case1",
                "--slices", "6", "--blocks", "16", "--steps", "1500", *extra]

    def test_submit_status_shutdown_verbs(self, capsys, daemon):
        port = str(daemon.port)
        out = run_cli(capsys, *self.submit_args(daemon))
        assert "job-000001" in out and "SLO attainment" in out
        out = run_cli(capsys, *self.submit_args(daemon, "--no-wait"))
        assert out.strip() == "job-000002"
        out = run_cli(capsys, *self.submit_args(daemon, "--json"))
        assert json.loads(out)["kind"] == "qos"
        out = run_cli(capsys, "status", "--port", port)
        assert "daemon pid" in out and "engine:" in out
        out = run_cli(capsys, "status", "--port", port, "--job", "job-000001")
        assert "job-000001" in out and "done" in out
        out = run_cli(capsys, "status", "--port", port, "--metrics")
        assert "jobs_submitted=3i" in out
        out = run_cli(capsys, "shutdown", "--port", port)
        assert "stopping" in out

    def test_client_verbs_without_daemon_exit_2(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = str(probe.getsockname()[1])
        for verb in (self.submit_args_unreachable(free_port),
                     ["status", "--port", free_port],
                     ["shutdown", "--port", free_port]):
            assert main(verb) == 2
            err = capsys.readouterr().err
            assert "is repro serve running?" in err

    def submit_args_unreachable(self, port):
        return ["submit", "--port", port, "--scenario", "case1",
                "--slices", "6", "--blocks", "16", "--steps", "1500"]

    #: One experiment in alias spellings, and in canonical ones.
    ALIASES = ("--arch", "hh-pim", "--model", "resnet-18",
               "--scenario", "low_constant", "--discipline", "FIFO")
    CANONICAL = ("--arch", "HH-PIM", "--model", "ResNet-18",
                 "--scenario", "case1", "--discipline", "fifo")
    SMALL = ("--slices", "6", "--blocks", "16", "--steps", "1500", "--json")

    def test_alias_spellings_are_canonicalised_by_the_daemon(self, capsys):
        from repro.api import Engine
        from repro.service import ServeClient, ServeDaemon

        outputs, labels = [], []
        for spelling in (self.ALIASES, self.CANONICAL):
            serving = ServeDaemon(port=0, engine=Engine(use_disk_cache=False),
                                  log=lambda line: None)
            serving.start()
            try:
                port = str(serving.port)
                outputs.append(
                    run_cli(capsys, "submit", "--port", port, *spelling,
                            *self.SMALL)
                )
                client = ServeClient(port=serving.port)
                labels.append(client.status("job-000001")["job"]["label"])
            finally:
                serving.drain()
                serving.stop()
        assert labels == ["HH-PIM/ResNet-18/case1"] * 2
        assert outputs[0] == outputs[1]

    def test_every_spelling_shares_one_store_key(self, capsys, tmp_path):
        from repro.api import Engine
        from repro.service import ServeClient, ServeDaemon
        from repro.store import Store

        engine = Engine(store=Store(tmp_path / "store"),
                        use_disk_cache=False)
        serving = ServeDaemon(port=0, engine=engine, log=lambda line: None)
        serving.start()
        try:
            port = str(serving.port)
            run_cli(capsys, "submit", "--port", port, *self.ALIASES,
                    *self.SMALL)
            built = engine.stats.dp_builds
            assert (engine.stats.runs, engine.stats.store_hits) == (1, 0)
            run_cli(capsys, "submit", "--port", port, *self.CANONICAL,
                    *self.SMALL)
            client = ServeClient(port=serving.port)
            client.result(client.submit({
                "arch": "hh-pim", "model": "resnet-18",
                "scenario": "low_constant", "qos": "FIFO", "fleet": 2,
                "slices": 6, "block_count": 16, "time_steps": 1500,
            }))
            assert engine.stats.dp_builds == built
            assert (engine.stats.runs, engine.stats.store_hits) == (1, 2)
        finally:
            serving.drain()
            serving.stop()

    def test_unknown_scenario_is_one_error_line(self, capsys, daemon):
        port = str(daemon.port)
        code = main(["submit", "--port", port, "--scenario", "nope",
                     "--slices", "6", "--blocks", "16", "--steps", "1500"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: unknown scenario 'nope'")
        assert err.count("\n") == 1 and "Traceback" not in err
        out = run_cli(capsys, "status", "--port", port)
        assert "jobs: 0 done, 0 failed, 0 running, 0 queued" in out

    def test_bad_value_reports_what_local_validation_does(self, capsys,
                                                           daemon):
        for argv in (["submit", "--port", str(daemon.port)], ["qos"]):
            assert main([*argv, "--slices", "0"]) == 2
            assert capsys.readouterr().err == (
                "error: slices must be positive\n"
            )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_case_bounds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--case", "9"])

    def test_submit_kind_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--kind", "banana"])

    def test_store_ls_kind_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "ls", "--kind", "banana"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7787
        assert args.workers == 1

    def test_trend_requires_current(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trend"])

    def test_trend_defaults(self):
        args = build_parser().parse_args(["trend", "--current", "out/"])
        assert args.baseline == "."
        assert args.tolerance == 0.30
        assert args.summary is None

    def test_sweep_spill_flag(self):
        args = build_parser().parse_args(["sweep", "--spill"])
        assert args.spill is True
        assert build_parser().parse_args(["sweep"]).spill is False


class TestCliErrorPaths:
    """Error paths must exit 2 with one clean line, no traceback."""

    def test_profile_malformed_trace_exits_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not a trace {{{")
        code = main(["profile", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot profile")
        assert "Traceback" not in captured.err

    def test_profile_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["profile", str(tmp_path / "nope.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot profile")
        assert "Traceback" not in captured.err

    def test_sweep_malformed_shard_exits_2(self, capsys):
        code = main(["sweep", "--shard", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "shard must look like I/N" in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_out_of_range_shard_exits_2(self, capsys):
        code = main(["sweep", "--shard", "5/2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "out of range" in captured.err
        assert "Traceback" not in captured.err

    def test_sweep_worker_bad_connect_exits_2(self, capsys):
        code = main(["sweep-worker", "--connect", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "HOST:PORT" in captured.err
        assert "Traceback" not in captured.err

    def test_store_ls_unknown_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "ls", "--kind", "banana"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "invalid choice" in captured.err
        assert "Traceback" not in captured.err


class TestFuzzCli:
    def test_fuzz_clean_run(self, capsys):
        out = run_cli(capsys, "fuzz", "--seed", "0", "--cases", "2")
        assert "violations=0" in out
        assert out.count("[ok]") == 2

    def test_fuzz_json_bit_reproducible(self, capsys):
        first = run_cli(capsys, "fuzz", "--seed", "3", "--cases", "2",
                        "--json")
        second = run_cli(capsys, "fuzz", "--seed", "3", "--cases", "2",
                         "--json")
        assert first == second
        payload = json.loads(first)
        assert payload["seed"] == 3
        assert payload["cases"] == 2
        assert payload["violations"] == 0

    def test_fuzz_negative_cases_exits_2(self, capsys):
        code = main(["fuzz", "--cases", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "non-negative" in captured.err

    def test_fuzz_injected_fault_full_loop(self, capsys, tmp_path,
                                           monkeypatch):
        """Inject, fail, persist; list via store ls; replay fails armed
        and passes clean."""
        store_dir = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_FUZZ_TEST_BREAK", "1")
        code = main(["fuzz", "--seed", "7", "--cases", "1",
                     "--store", store_dir])
        captured = capsys.readouterr()
        assert code == 2
        assert "invariant violation" in captured.err
        assert "[FAIL]" in captured.out
        assert "shrunk ->" in captured.out

        out = run_cli(capsys, "store", "ls", "--kind", "fuzz",
                      "--store", store_dir)
        assert "conservation" in out
        assert "repro fuzz --replay" in out

        code = main(["fuzz", "--replay", "--store", store_dir])
        captured = capsys.readouterr()
        assert code == 2
        assert "still fail" in captured.err

        monkeypatch.delenv("REPRO_FUZZ_TEST_BREAK")
        out = run_cli(capsys, "fuzz", "--replay", "--store", store_dir)
        assert "[ok]" in out

    def test_fuzz_replay_empty_store(self, capsys, tmp_path):
        out = run_cli(capsys, "fuzz", "--replay", "--store",
                      str(tmp_path / "empty"))
        assert "replayed 0" in out
