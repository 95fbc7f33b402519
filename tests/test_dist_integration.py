"""Multi-process tests for the work-stealing distributed sweep.

The acceptance regression lives here: a worker SIGKILLed mid-sweep is
stolen from, the sweep completes, and the aggregated export is
byte-identical to an uninterrupted single-process run — plus the CLI
faces of the coordinator (``repro status --json``) and the serve
daemon's typed refusal of coordinator verbs.  Real subprocesses and
ephemeral ports throughout; isolated cache/store directories keep
parallel CI jobs from colliding.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import Engine, ExperimentConfig
from repro.cli import main
from repro.dist import CoordinatorClient, SweepCoordinator
from repro.dist.executor import distributed_sweep, spawn_worker
from repro.service.client import RemoteError
from repro.store import Store
from repro.store.sharding import runtime_chunks

TINY = dict(block_count=SMALL_BLOCKS, time_steps=SMALL_STEPS, slices=4)


def tiny_grid(seeds: int = 6) -> tuple:
    return ExperimentConfig(**TINY).sweep(
        seed=list(range(2025, 2025 + seeds))
    )


@pytest.fixture
def lut_cache(tmp_path, monkeypatch):
    """An isolated LUT cache that worker subprocesses inherit."""
    monkeypatch.setenv("REPRO_LUT_CACHE", str(tmp_path / "lut"))
    return tmp_path / "lut"


class TestKilledWorker:
    def test_sigkilled_worker_is_stolen_from_and_export_matches(
        self, tmp_path, lut_cache
    ):
        """The differential acceptance test: SIGKILL mid-sweep, steal,
        finish, and export byte-identically to a single-process run."""
        grid = tiny_grid()
        # Reference first: an uninterrupted single-process sweep (this
        # also warms the shared LUT cache the workers will load from).
        reference = Engine().run_many(grid).to_json()

        store = Store(tmp_path / "store")
        coordinator = SweepCoordinator(
            grid, store, chunk_size=2, lease_s=4.0, log=lambda line: None
        )
        coordinator.start()
        victim = rescuer = None
        try:
            victim = spawn_worker(
                coordinator.host, coordinator.port, "victim",
                env={"REPRO_DIST_TEST_STALL_S": "300"},
            )
            # The victim claims a chunk, computes its first sub-batch
            # into the store, then parks without renewing.  Wait for
            # evidence of real mid-chunk work, then SIGKILL it.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if store.info()["entries"] > 0:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("victim never wrote a record to the store")
            victim.kill()
            victim.wait(timeout=30)

            rescuer = spawn_worker(
                coordinator.host, coordinator.port, "rescuer"
            )
            assert coordinator.wait(timeout=180), (
                f"sweep did not complete: {coordinator.status()}"
            )
            status = coordinator.status()
        finally:
            for process in (victim, rescuer):
                if process is not None:
                    if process.poll() is None:
                        process.kill()
                    process.wait(timeout=30)
                    process.stderr.close()
            coordinator.stop()

        assert status["chunks"]["stolen"] >= 1
        assert status["chunks"]["completed"] == status["chunks"]["total"]
        # The crash left no orphaned lease files behind.
        assert coordinator.leases.active() == []
        assert not list(coordinator.leases.root.glob("chunk-*"))
        # Resume from the store recomputes nothing and exports the
        # byte-identical result set.
        resumed = Engine(store=store, resume=True)
        assert resumed.run_many(grid).to_json() == reference
        assert resumed.stats.runs == 0

    def test_distributed_sweep_matches_single_process(
        self, tmp_path, lut_cache
    ):
        """The one-call executor: 2 live workers, same bytes out."""
        grid = tiny_grid(4)
        reference = Engine().run_many(grid).to_json()
        status: dict = {}
        results = distributed_sweep(
            grid, tmp_path / "store", workers=2, chunk_size=2,
            log=lambda line: None, timeout=300,
            status_sink=status.update,
        )
        assert results.to_json() == reference
        assert status["done"]
        assert status["configs"]["completed"] == len(grid)

    def test_traced_sweep_merges_one_trace_across_processes(
        self, tmp_path, lut_cache
    ):
        """A traced sweep writes one merged Perfetto-loadable trace:
        coordinator plus every worker on a shared time axis, exactly
        one completed ``worker.chunk`` span per chunk, and results
        still bit-identical to the untraced reference."""
        from repro.obs.tracing import Trace

        grid = tiny_grid(4)
        reference = Engine().run_many(grid).to_json()
        trace_path = tmp_path / "trace.json"
        results = distributed_sweep(
            grid, tmp_path / "store", workers=2, chunk_size=2,
            log=lambda line: None, timeout=300, trace=trace_path,
        )
        assert results.to_json() == reference

        trace = Trace.from_file(trace_path)
        procs = {s.proc for s in trace.spans}
        worker_procs = {p for p in procs if p.startswith("worker:")}
        assert "coordinator" in procs
        # One worker may drain every chunk before the other attaches,
        # so only "some of the spawned workers" is guaranteed.
        spawned = {f"worker:w{i}-{os.getpid()}" for i in range(2)}
        assert worker_procs and worker_procs <= spawned

        # Exactly one completed chunk span per chunk, recorded by the
        # worker that ran it, with the engine's spans merged alongside.
        chunks = [s for s in trace.spans if s.name == "worker.chunk"]
        completed = [s for s in chunks if s.args.get("completed")]
        expected = [
            (index, len(chunk))
            for index, chunk in enumerate(runtime_chunks(grid, 2))
        ]
        assert sorted(
            (s.args["chunk"], s.args["configs"]) for s in completed
        ) == expected
        assert sum(size for _, size in expected) == len(grid)
        assert {s.proc for s in chunks} <= worker_procs

        claims = [s for s in trace.spans if s.name == "worker.claim"]
        assert {s.proc for s in claims} <= worker_procs
        names = {s.name for s in trace.spans}
        assert {"dist.sweep", "engine.run_many", "engine.run"} <= names

        # The written file is valid Chrome trace-event JSON with a
        # metadata track per process.
        payload = json.loads(trace_path.read_text())
        metas = [
            e for e in payload["traceEvents"] if e.get("ph") == "M"
        ]
        assert {m["args"]["name"] for m in metas} == procs


class TestCoordinatorCLI:
    def test_status_json_against_live_coordinator(
        self, tmp_path, capsys
    ):
        coordinator = SweepCoordinator(
            tiny_grid(), Store(tmp_path / "store"), log=lambda line: None
        )
        coordinator.start()
        try:
            code = main(
                ["status", "--port", str(coordinator.port), "--json"]
            )
            out = capsys.readouterr().out
            assert code == 0
            state = json.loads(out)
            assert state["chunks"]["total"] > 0
            assert state["chunks"]["completed"] == 0
            assert state["configs"]["total"] == len(coordinator.configs)
            assert state["workers"] == {}

            code = main(["status", "--port", str(coordinator.port)])
            text = capsys.readouterr().out
            assert code == 0
            assert "sweep coordinator" in text
            assert "stolen" in text
        finally:
            coordinator.stop()

    def test_sweep_worker_rejects_malformed_connect(self, capsys):
        code = main(["sweep-worker", "--connect", "no-port-here"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")


class TestDaemonBoundary:
    def test_serve_daemon_refuses_coordinator_verbs(self, tmp_path):
        from repro.service.daemon import ServeDaemon

        daemon = ServeDaemon(
            port=0,
            engine=Engine(use_disk_cache=False),
            log=lambda line: None,
        )
        daemon.start()
        try:
            client = CoordinatorClient("127.0.0.1", daemon.port, "w0")
            with pytest.raises(RemoteError) as error:
                client.claim()
            assert error.value.code == "unsupported"
            # The refusal is an answer, not a shutdown: the daemon
            # still serves its own protocol afterwards.
            assert client.ping()
        finally:
            daemon.drain()
            daemon.stop()
