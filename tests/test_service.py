"""Tests for the serving daemon, its wire protocol and metrics exporter.

The daemon under test runs in-process (``ServeDaemon.start()`` on an
ephemeral port) with a silenced logger; clients talk to it over real
TCP sockets, so the framing, dispatch and worker paths are all the
production ones.  The subprocess lifecycle (signals, pidfile, CLI
summary line) lives in ``test_service_integration.py``.
"""

import json
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import types

import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import Engine, ExperimentConfig
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service import (
    PROTOCOL_VERSION,
    MetricsRegistry,
    RemoteError,
    ServeClient,
    ServeDaemon,
)
from repro.service import protocol
from repro.service.telemetry import (
    Histogram,
    LineFileWriter,
    escape_measurement,
    escape_tag,
    format_field_value,
    format_line,
)

TINY = dict(block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS)


def qos_config(**overrides):
    base = dict(scenario="case1", slices=6, **TINY)
    base.update(overrides)
    return ExperimentConfig(**base)


# -- wire framing -----------------------------------------------------------------


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        message = protocol.request("PING", nonce=42)
        protocol.send_message(a, message)
        assert protocol.recv_message(b) == message

    def test_several_frames_on_one_stream(self, pair):
        a, b = pair
        for index in range(3):
            protocol.send_message(a, protocol.request("STATUS", seq=index))
        got = [protocol.recv_message(b)["seq"] for _ in range(3)]
        assert got == [0, 1, 2]

    def test_clean_eof_is_connection_closed(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(protocol.ConnectionClosed):
            protocol.recv_message(b)

    def test_truncated_frame_is_torn_not_closed(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 100) + b"only ten b")
        a.close()
        with pytest.raises(ProtocolError) as err:
            protocol.recv_message(b)
        assert not isinstance(err.value, protocol.ConnectionClosed)
        assert "truncated" in str(err.value)

    def test_oversize_length_prefix_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.recv_message(b)

    def test_bad_json_rejected(self, pair):
        a, b = pair
        body = b"not json at all"
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            protocol.recv_message(b)

    def test_non_object_message_rejected(self, pair):
        a, b = pair
        body = json.dumps([1, 2, 3]).encode()
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.recv_message(b)

    def test_unserialisable_message_rejected(self):
        with pytest.raises(ProtocolError, match="JSON-serialisable"):
            protocol.encode_frame({"x": object()})


class TestMessageValidation:
    def test_request_carries_version(self):
        assert protocol.request("PING")["v"] == PROTOCOL_VERSION

    def test_unknown_request_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request type"):
            protocol.request("FROBNICATE")

    def test_version_mismatch_code(self):
        with pytest.raises(ProtocolError) as err:
            protocol.validate_request({"v": 99, "type": "PING"})
        assert err.value.code == "version_mismatch"

    def test_unknown_type_code(self):
        message = {"v": PROTOCOL_VERSION, "type": "NOPE"}
        with pytest.raises(ProtocolError) as err:
            protocol.validate_request(message)
        assert err.value.code == "unknown_type"

    def test_submit_needs_config_object(self):
        message = {"v": PROTOCOL_VERSION, "type": "SUBMIT", "config": 7}
        with pytest.raises(ProtocolError, match="config object"):
            protocol.validate_request(message)

    def test_submit_rejects_unknown_kind(self):
        message = {
            "v": PROTOCOL_VERSION, "type": "SUBMIT",
            "kind": "banana", "config": {},
        }
        with pytest.raises(ProtocolError, match="unknown submit kind"):
            protocol.validate_request(message)

    def test_result_needs_job_id(self):
        message = {"v": PROTOCOL_VERSION, "type": "RESULT"}
        with pytest.raises(ProtocolError, match="job_id"):
            protocol.validate_request(message)

    def test_error_reply_codes_are_closed_set(self):
        reply = protocol.error_reply("draining", "later")
        assert reply["type"] == "ERROR"
        assert reply["code"] == "draining"
        with pytest.raises(ProtocolError):
            protocol.error_reply("made_up_code", "nope")


# -- line protocol (golden) -------------------------------------------------------


class TestLineProtocol:
    def test_golden_line(self):
        # Pinned format: external dashboards parse exactly this.
        line = format_line(
            "m,1 x",
            {"b tag": "v=1", "a": "x,y"},
            {"i": 3, "f": 0.5, "b": True, "s": 'say "hi"\\'},
            1700000000000000000,
        )
        assert line == (
            r"m\,1\ x,a=x\,y,b\ tag=v\=1 "
            'b=true,f=0.5,i=3i,s="say \\"hi\\"\\\\" '
            "1700000000000000000"
        )

    def test_golden_line_untagged_untimestamped(self):
        assert format_line("jobs", {}, {"done": 2}) == "jobs done=2i"

    def test_escaping(self):
        assert escape_measurement("a b,c") == r"a\ b\,c"
        assert escape_tag("k=v, w") == r"k\=v\,\ w"

    def test_field_values(self):
        assert format_field_value(True) == "true"
        assert format_field_value(False) == "false"
        assert format_field_value(7) == "7i"
        assert format_field_value(0.25) == "0.25"
        assert format_field_value("a") == '"a"'
        with pytest.raises(ServiceError, match="unsupported"):
            format_field_value(object())

    def test_empty_fields_rejected(self):
        with pytest.raises(ServiceError, match="no fields"):
            format_line("m", {}, {})

    def test_histogram_fields(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(value)
        fields = histogram.fields("wall")
        assert fields["wall_count"] == 100
        assert fields["wall_sum"] == pytest.approx(5050.0)
        assert fields["wall_min"] == 1.0
        assert fields["wall_max"] == 100.0
        assert fields["wall_p50"] <= fields["wall_p95"] <= fields["wall_p99"]

    def test_histogram_window_bounds_memory(self):
        histogram = Histogram(window=8)
        for value in range(1000):
            histogram.observe(value)
        assert histogram.count == 1000
        assert len(histogram._recent) == 8
        # Percentiles now reflect the window, not all time.
        assert histogram.fields("x")["x_p50"] >= 992

    def test_empty_histogram_renders_count_and_sum_only(self):
        # No observations: no min/max/percentiles — dashboards must
        # not see NaNs or placeholder tails before the first job.
        fields = Histogram().fields("wall")
        assert fields == {"wall_count": 0, "wall_sum": 0.0}
        assert format_line("jobs", {}, fields) == (
            "jobs wall_count=0i,wall_sum=0.0"
        )

    def test_field_names_escape_like_tags(self):
        # Field *keys* pass through tag escaping, so a pathological
        # metric name cannot tear the line apart.
        assert format_line("m", {}, {"a b": 1, "k=v": 2}) == (
            r"m a\ b=1i,k\=v=2i"
        )

    def test_render_unchanged_under_active_tracer(self):
        # Observability layers must not bleed into each other: the
        # metrics render is byte-identical with span tracing active.
        from repro.obs import tracing as obs_tracing

        def build():
            registry = MetricsRegistry()
            registry.counter("jobs", "done").inc(2)
            registry.gauge("obs", "spans").set(7)
            registry.histogram("jobs", "wall_s").observe(0.5)
            return registry.render(timestamp_ns=1700000000000000000)

        baseline = build()
        obs_tracing.activate(proc="test", epoch_ns=0)
        try:
            traced = build()
        finally:
            obs_tracing.deactivate()
        assert traced == baseline


class TestRegistry:
    def test_fields_merge_into_one_line(self):
        registry = MetricsRegistry()
        registry.counter("jobs", "done").inc(2)
        registry.gauge("jobs", "queue").set(3)
        assert registry.lines() == ["jobs done=2i,queue=3i"]

    def test_tags_split_lines_and_sort(self):
        registry = MetricsRegistry()
        registry.counter("jobs", "n", tags={"kind": "qos"}).inc()
        registry.counter("jobs", "n", tags={"kind": "run"}).inc(5)
        assert registry.lines() == [
            "jobs,kind=qos n=1i",
            "jobs,kind=run n=5i",
        ]

    def test_render_is_deterministic(self):
        registry = MetricsRegistry()
        registry.gauge("b", "y").set(1)
        registry.counter("a", "x").inc()
        first = registry.render(timestamp_ns=123)
        assert first == registry.render(timestamp_ns=123)
        assert first.splitlines()[0].startswith("a ")

    def test_values_mirror_lines(self):
        """``values()`` is the JSON face of ``lines()``: same grouping
        by measurement+tags, same field payload."""
        registry = MetricsRegistry()
        registry.counter("jobs", "done").inc(2)
        registry.gauge("jobs", "queue").set(3)
        registry.counter("jobs", "n", tags={"kind": "qos"}).inc()
        assert registry.values() == {
            "jobs": {"done": 2, "queue": 3},
            "jobs,kind=qos": {"n": 1},
        }

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", "f")
        with pytest.raises(ServiceError, match="already registered"):
            registry.gauge("m", "f")

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ServiceError, match="only go up"):
            registry.counter("m", "f").inc(-1)


class TestLineFileWriter:
    def test_appends_and_flushes(self, tmp_path):
        path = tmp_path / "metrics.lp"
        writer = LineFileWriter(path)
        writer.write(["a x=1i"])
        writer.write(["b y=2i", "c z=3i"])
        writer.close()
        assert path.read_text().splitlines() == ["a x=1i", "b y=2i", "c z=3i"]

    def test_failure_degrades_silently_after_one_warning(self, tmp_path):
        warnings = []
        writer = LineFileWriter(
            tmp_path / "missing-dir" / "metrics.lp", log=warnings.append
        )
        writer.write(["a x=1i"])
        writer.write(["b y=2i"])
        writer.close()
        assert len(warnings) == 1
        assert "metrics_file_error" in warnings[0]


# -- the daemon, in-process over real sockets -------------------------------------


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    metrics_file = tmp_path_factory.mktemp("serve") / "metrics.lp"
    serving = ServeDaemon(
        port=0,
        engine=Engine(use_disk_cache=False),
        metrics_file=metrics_file,
        log=lambda line: None,
    )
    serving.start()
    yield serving
    serving.initiate_shutdown()
    serving._shutdown_thread.join(timeout=30)


@pytest.fixture
def client(daemon):
    return ServeClient(port=daemon.port, timeout=60.0)


class TestDaemon:
    def test_ping(self, client):
        assert client.ping()

    def test_ping_nobody_home(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert not ServeClient(port=free_port, timeout=2.0).ping()

    def test_warm_submissions_skip_dp_rebuilds(self, client):
        """Submissions after the first reuse the resident runtime, also
        for another scenario on the same runtime key."""
        config = qos_config()
        other = qos_config(scenario="case2")
        first = client.result(client.submit(config))
        warm = client.status()["engine"]
        baseline_dp, baseline_hits = warm["dp_builds"], warm["lut_hits"]
        payloads = [
            client.result(client.submit(config)) for _ in range(3)
        ]
        second = client.result(client.submit(other))
        after = client.status()["engine"]
        assert after["dp_builds"] == baseline_dp  # zero rebuilds while warm
        assert after["lut_hits"] >= baseline_hits + 4
        for payload in payloads:
            assert payload["result"] == first["result"]
        assert second["result"] != first["result"]

    def test_daemon_result_bit_identical_to_local_engine(self, client):
        config = qos_config(slices=8, peak=4)
        remote = client.result(client.submit(config, records=True))
        local = Engine(use_disk_cache=False).run_qos(config)
        expected = json.loads(json.dumps(local.to_dict(include_records=True)))
        assert remote["kind"] == "qos"
        assert remote["result"] == expected

    def test_run_and_fleet_kinds(self, client):
        run = client.result(client.submit(qos_config(), kind="run"))
        assert run["kind"] == "run"
        assert run["row"]["devices"] == 1
        assert run["result"]["total_energy_nj"] > 0
        fleet = client.result(
            client.submit(qos_config(fleet=2), kind="fleet")
        )
        assert fleet["kind"] == "fleet"
        assert fleet["row"]["devices"] == 2

    def test_status_reports_job_and_daemon_state(self, client, daemon):
        job_id = client.submit(qos_config())
        client.result(job_id)
        job = client.status(job_id)["job"]
        assert job["state"] == "done"
        assert job["error"] is None
        assert job["wall_s"] > 0
        state = client.status()
        assert state["port"] == daemon.port
        assert state["jobs"]["done"] >= 1
        assert not state["draining"]
        assert any(j["job_id"] == job_id for j in state["recent"])

    def test_metrics_scrape(self, client):
        client.result(client.submit(qos_config()))
        body = client.metrics()
        by_name = {
            line.split(",")[0].split(" ")[0]: line
            for line in body.strip().splitlines()
        }
        assert "jobs_completed=" in by_name["repro_serve_jobs"]
        assert "jobs_submitted=" in by_name["repro_serve_jobs"]
        assert "wall_s_p95=" in by_name["repro_serve_jobs"]
        assert "dp_builds=" in by_name["repro_engine"]
        assert "uptime_s=" in by_name["repro_serve"]
        assert "requests_completed=" in by_name["repro_qos"]
        # QoS windows streamed into gauges as the simulation ran.
        assert "slo_attainment=" in by_name["repro_qos_window"]

    def test_metrics_file_tails_jobs_and_windows(self, client, daemon):
        client.result(client.submit(qos_config()))
        lines = daemon._metrics_writer.path.read_text().splitlines()
        assert any(line.startswith("repro_qos_window,job=") for line in lines)
        assert any(line.startswith("repro_serve_job,job=") for line in lines)

    def test_failed_job_is_typed_and_daemon_survives(self, client, daemon):
        original = daemon.engine.run_job

        def explode(*args, **kwargs):
            raise ReproError("injected failure")

        daemon.engine.run_job = explode
        try:
            job_id = client.submit(qos_config())
            with pytest.raises(RemoteError) as err:
                client.result(job_id)
            assert err.value.code == "job_failed"
            assert "injected failure" in str(err.value)
        finally:
            daemon.engine.run_job = original
        # The daemon keeps serving: the very next submission succeeds.
        assert client.result(client.submit(qos_config()))["kind"] == "qos"
        assert client.status(job_id)["job"]["state"] == "failed"
        assert "jobs_failed=" in client.metrics()

    def test_result_without_wait_is_job_pending(self, client, daemon):
        release = threading.Event()
        original = daemon.engine.run_job

        def held(*args, **kwargs):
            release.wait(timeout=30)
            return original(*args, **kwargs)

        daemon.engine.run_job = held
        try:
            job_id = client.submit(qos_config())
            with pytest.raises(RemoteError) as err:
                client.result(job_id, wait=False)
            assert err.value.code == "job_pending"
        finally:
            release.set()
            daemon.engine.run_job = original
        assert client.result(job_id)["kind"] == "qos"

    def test_unknown_job_is_typed(self, client):
        with pytest.raises(RemoteError) as err:
            client.result("job-999999")
        assert err.value.code == "unknown_job"
        with pytest.raises(RemoteError) as err:
            client.status("job-999999")
        assert err.value.code == "unknown_job"

    def test_bad_config_rejected_at_submit(self, client):
        config = qos_config().to_dict()
        config["arch"] = "no-such-arch"
        with pytest.raises(RemoteError) as err:
            client.submit(config)
        assert err.value.code == "bad_config"

    def test_wrongly_typed_field_is_bad_config(self, client):
        with pytest.raises(RemoteError) as err:
            client.submit({"slices": "six"})
        assert err.value.code == "bad_config"
        assert client.ping()

    def test_raw_socket_error_replies(self, daemon):
        def exchange(message):
            with socket.create_connection(
                ("127.0.0.1", daemon.port), timeout=10
            ) as sock:
                protocol.send_message(sock, message)
                return protocol.recv_message(sock)

        stale = exchange({"v": 99, "type": "PING"})
        assert (stale["type"], stale["code"]) == ("ERROR", "version_mismatch")
        alien = exchange({"v": PROTOCOL_VERSION, "type": "NOPE"})
        assert (alien["type"], alien["code"]) == ("ERROR", "unknown_type")
        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=10
        ) as sock:
            sock.sendall(struct.pack(">I", 5) + b"{{{{{")
            torn = protocol.recv_message(sock)
            assert (torn["type"], torn["code"]) == ("ERROR", "bad_message")
            # A torn stream is unrecoverable: the daemon hangs up after.
            assert sock.recv(1) == b""

    def test_second_daemon_on_same_port_fails_fast(self, daemon):
        rival = ServeDaemon(
            port=daemon.port,
            engine=Engine(use_disk_cache=False),
            log=lambda line: None,
        )
        with pytest.raises(ServiceError, match="already running"):
            rival.start()

    def test_coordinator_on_a_taken_port_fails_fast(self, daemon, tmp_path):
        from repro.dist import SweepCoordinator

        coordinator = SweepCoordinator(
            (qos_config(),), tmp_path / "store", host=daemon.host,
            port=daemon.port, log=lambda line: None,
        )
        with pytest.raises(ServiceError) as excinfo:
            coordinator.bind()
        assert str(excinfo.value) == (
            f"cannot listen on {daemon.host}:{daemon.port}: "
            "Address already in use"
        )
        # No server was bound: the port reads back as requested.
        assert coordinator.port == daemon.port


class _Window:
    """A QoS window's stats as ``ServeDaemon._observe_window`` reads them."""

    completed = 3

    def to_dict(self):
        return {
            "index": 2, "arrivals": 4, "completed": 3, "backlog": 1,
            "fleet_size": 2, "utilization": 0.625, "slo_attainment": 0.75,
            "energy_nj": 1234.5, "p50_ns": 100.0, "p95_ns": 250.5,
            "p99_ns": None,
        }


class TestWindowMetrics:
    def test_metrics_file_lines_are_unchanged(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.lp"
        serving = ServeDaemon(
            port=0, engine=Engine(use_disk_cache=False),
            metrics_file=path, log=lambda line: None,
        )
        monkeypatch.setattr(time, "time_ns", lambda: 1700000000123456789)
        serving._observe_window(types.SimpleNamespace(job_id="job-7"),
                                _Window())
        serving._metrics_writer.close()
        assert path.read_bytes() == (
            b"repro_qos_window,job=job-7 arrivals=4i,backlog=1i,"
            b"completed=3i,energy_nj=1234.5,fleet_size=2i,index=2i,"
            b"p50_ns=100.0,p95_ns=250.5,slo_attainment=0.75,"
            b"utilization=0.625 1700000000123456789\n"
        )

    def test_gauges_hold_the_last_value_of_each_field(self):
        serving = ServeDaemon(
            port=0, engine=Engine(use_disk_cache=False),
            log=lambda line: None,
        )
        assert "repro_qos_window" not in serving.metrics.render()
        job = types.SimpleNamespace(job_id="job-7")
        later = _Window()
        later.to_dict = lambda: {**_Window().to_dict(), "index": 3,
                                 "p50_ns": None, "p99_ns": 300.0}
        serving._observe_window(job, _Window())
        serving._observe_window(job, later)
        window = serving.metrics.values()["repro_qos_window"]
        assert (window["index"], window["p50_ns"], window["p99_ns"]) == (
            3, 100.0, 300.0
        )

    def test_no_metrics_file_renders_no_lines(self, monkeypatch):
        def no_format(*args, **kwargs):
            raise AssertionError("rendered a line with no metrics file")

        monkeypatch.setattr("repro.service.daemon.format_line", no_format)
        serving = ServeDaemon(
            port=0, engine=Engine(use_disk_cache=False),
            log=lambda line: None,
        )
        serving._observe_window(types.SimpleNamespace(job_id="job-7"),
                                _Window())
        assert "slo_attainment=0.75" in serving.metrics.render()
        # A whole job, windows and finish line included, renders none.
        serving.start()
        try:
            client = ServeClient(port=serving.port, timeout=60.0)
            payload = client.result(client.submit(qos_config()))
            assert payload["kind"] == "qos"
        finally:
            serving.drain()
            serving.stop()


class TestStop:
    """stop() wakes the acceptor instead of waiting out a poll."""

    @pytest.mark.parametrize("kind", ["daemon", "coordinator"])
    def test_stop_of_an_idle_server_returns_at_once(self, tmp_path, kind):
        if kind == "daemon":
            server = ServeDaemon(
                port=0, engine=Engine(use_disk_cache=False),
                log=lambda line: None,
            )
        else:
            from repro.dist import SweepCoordinator

            server = SweepCoordinator(
                (qos_config(),), tmp_path / "store", log=lambda line: None
            )
        server.start()
        port = server.port
        try:
            # The acceptor has just served a connection, so a polling
            # acceptor would sit out a whole poll interval now.
            assert ServeClient(port=port, timeout=10.0).ping()
        finally:
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 0.15
        assert not ServeClient(port=port, timeout=1.0).ping()

    def test_sigterm_ends_run_and_removes_the_pidfile(self, tmp_path):
        """``repro serve`` blocks in run(); SIGTERM must still reach it."""
        pidfile = tmp_path / "serve.pid"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--pidfile", str(pidfile), "--store", str(tmp_path / "st"),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            for line in process.stderr:
                if "event=listening" in line:
                    break
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.stderr.close()
        assert not pidfile.exists()

    def test_sigterm_right_after_listening_still_drains(self, tmp_path):
        """A SIGTERM sent as the listening line appears is not fatal."""
        pidfile = tmp_path / "serve.pid"
        script = (
            "import os, signal, sys\n"
            "from repro.api import Engine\n"
            "from repro.service import ServeDaemon\n"
            "class Eager(ServeDaemon):\n"
            "    def start(self):\n"
            "        super().start()\n"
            "        os.kill(os.getpid(), signal.SIGTERM)\n"
            "Eager(port=0, engine=Engine(use_disk_cache=False),\n"
            "      pidfile=sys.argv[1], log=lambda line: None).run()\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(pidfile)], timeout=30
        )
        assert completed.returncode == 0
        assert not pidfile.exists()


class TestDrainAndShutdown:
    @pytest.fixture
    def fresh(self, tmp_path):
        serving = ServeDaemon(
            port=0,
            engine=Engine(use_disk_cache=False),
            pidfile=tmp_path / "serve.pid",
            metrics_file=tmp_path / "metrics.lp",
            log=lambda line: None,
        )
        serving.start()
        yield serving
        if serving._server is not None:
            serving.stop()

    def test_drain_finishes_work_then_rejects_submissions(self, fresh):
        client = ServeClient(port=fresh.port, timeout=60.0)
        client.submit(qos_config())
        assert client.drain() == 1
        with pytest.raises(RemoteError) as err:
            client.submit(qos_config())
        assert err.value.code == "draining"
        # Observability survives the drain.
        assert client.status()["draining"]
        assert "jobs_completed=1i" in client.metrics()

    def test_shutdown_stops_and_cleans_up(self, fresh):
        client = ServeClient(port=fresh.port, timeout=60.0)
        assert fresh.pidfile.read_text().strip().isdigit()
        client.result(client.submit(qos_config()))
        client.shutdown()
        # stop() clears _server before removing the pidfile: wait on the
        # pidfile, the last artefact of the shutdown sequence.
        deadline = time.monotonic() + 30
        while fresh.pidfile.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert fresh._server is None
        assert not fresh.pidfile.exists()
        assert (fresh.pidfile.parent / "metrics.lp").read_text()
        assert not client.ping()

    def test_traced_submit_returns_job_span_subtree(self, tmp_path):
        """A waiting RESULT must carry the subtree, not lose the race
        with its collection (the trace is attached before _finish)."""
        serving = ServeDaemon(
            port=0, engine=Engine(use_disk_cache=False),
            trace=tmp_path / "daemon.json", log=lambda line: None,
        )
        try:
            serving.start()
            client = ServeClient(port=serving.port, timeout=60.0)
            job_id = client.submit(qos_config(), trace=True)
            spans = client.result(job_id, wait=True)["trace"]
            roots = [s for s in spans if s["parent"] is None]
            assert [s["name"] for s in roots] == ["daemon.job"]
            names = {s["name"] for s in spans}
            assert "engine.qos" in names
            # A second, untraced submission carries no trace key.
            plain = client.result(client.submit(qos_config()), wait=True)
            assert "trace" not in plain
        finally:
            serving.stop()
        # The daemon's own trace file lands on stop.
        from repro.obs.tracing import Trace

        written = Trace.from_file(tmp_path / "daemon.json")
        assert sum(1 for s in written.spans if s.name == "daemon.job") == 2

    def test_completed_qos_jobs_persist_into_the_store(self, tmp_path):
        from repro.store import Store

        store = Store(tmp_path / "store")
        serving = ServeDaemon(port=0, store=store, log=lambda line: None)
        try:
            serving.start()
            client = ServeClient(port=serving.port, timeout=60.0)
            client.result(client.submit(qos_config()))
            rows = store.qos_rows()
            assert len(rows) == 1
            assert rows[0]["completed"] > 0
        finally:
            if serving._server is not None:
                serving.stop()
