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
import signal
import subprocess
import sys
import threading
import time

import pytest

from _shared import SMALL_BLOCKS, SMALL_STEPS
from repro.api import Engine, ExperimentConfig
from repro.cli import main
from repro.dist import CoordinatorClient, SweepCoordinator, run_worker
from repro.dist import executor
from repro.dist.executor import distributed_sweep, fork_worker
from repro.errors import ServiceError
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
        # Fork the victim while the coordinator runs no thread yet.
        coordinator.bind()
        victim = fork_worker(
            coordinator, "victim", env={"REPRO_DIST_TEST_STALL_S": "300"}
        )
        coordinator.start()
        try:
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

            # The rescuer works in this process: it steals the victim's
            # chunk once the lease expires and returns when all are done.
            run_worker(coordinator.host, coordinator.port, "rescuer",
                       log=lambda line: None)
            assert coordinator.wait(timeout=180), (
                f"sweep did not complete: {coordinator.status()}"
            )
            status = coordinator.status()
        finally:
            victim.kill()
            victim.wait(timeout=30)
            victim.stderr.close()
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


class TestForkedPool:
    """The local pool is forked from the coordinator process: no new
    interpreter, no thread at the fork, and every child reaped."""

    def test_forks_while_single_threaded(
        self, tmp_path, lut_cache, monkeypatch
    ):
        threads_before = threading.active_count()
        counts = []
        real_fork = os.fork

        def counting_fork():
            counts.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        grid = tiny_grid(2)
        results = distributed_sweep(
            grid, tmp_path / "store", workers=2, chunk_size=1,
            log=lambda line: None, timeout=300,
        )
        assert len(results) == len(grid)
        assert counts == [threads_before] * 2

    def test_starts_no_interpreter(self, tmp_path, lut_cache, monkeypatch):
        def no_popen(*args, **kwargs):
            raise AssertionError(f"started a process: {args}")

        monkeypatch.setattr(subprocess, "Popen", no_popen)
        grid = tiny_grid(2)
        reference = Engine().run_many(grid).to_json()
        results = distributed_sweep(
            grid, tmp_path / "store", workers=2, chunk_size=1,
            log=lambda line: None, timeout=300,
        )
        assert results.to_json() == reference

    @staticmethod
    def _record_children(monkeypatch) -> list:
        """Keep every handle the executor's pool forks."""
        children = []
        real = executor.fork_worker

        def recording(*args, **kwargs):
            children.append(real(*args, **kwargs))
            return children[-1]

        monkeypatch.setattr(executor, "fork_worker", recording)
        return children

    @staticmethod
    def _assert_reaped(children, workers: int) -> None:
        assert len(children) == workers
        for child in children:
            assert child.returncode is not None
            assert child.stderr.closed
            with pytest.raises(ChildProcessError):
                os.waitpid(child.pid, os.WNOHANG)

    @pytest.mark.parametrize("error, code, last_line", [
        (ServiceError("cannot write the store"), 2,
         "error: cannot write the store"),
        (RuntimeError("worker bug"), 1, "RuntimeError: worker bug"),
    ])
    def test_failed_workers_stall_the_sweep_and_are_reaped(
        self, tmp_path, monkeypatch, error, code, last_line
    ):
        def failing_worker(*args, **kwargs):
            print("noise before the failure", file=sys.stderr)
            raise error

        # The forked children inherit the patched module.
        monkeypatch.setattr(executor, "run_worker", failing_worker)
        children = self._record_children(monkeypatch)
        with pytest.raises(ServiceError) as raised:
            distributed_sweep(
                tiny_grid(2), tmp_path / "store", workers=2,
                log=lambda line: None, timeout=300,
            )
        message = str(raised.value)
        assert "stalled" in message
        for index in range(2):
            assert f"w{index}-{os.getpid()} exited {code}" in message
        assert message.count(last_line) == 2
        self._assert_reaped(children, 2)
        assert [child.returncode for child in children] == [code, code]

    def test_timeout_kills_and_reaps_live_workers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            executor, "run_worker", lambda *args, **kwargs: time.sleep(60)
        )
        children = self._record_children(monkeypatch)
        with pytest.raises(ServiceError, match="timed out"):
            distributed_sweep(
                tiny_grid(2), tmp_path / "store", workers=2,
                log=lambda line: None, timeout=0.3,
            )
        self._assert_reaped(children, 2)
        assert [child.returncode for child in children] == [
            -signal.SIGKILL, -signal.SIGKILL
        ]

    def test_no_fork_is_a_typed_error(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ServiceError, match="--workers 0"):
            distributed_sweep(
                tiny_grid(2), tmp_path / "store", workers=2,
                log=lambda line: None,
            )

    def test_trace_attributes_worker_start_up(self, tmp_path, lut_cache):
        """``dist.start_workers`` wraps the forks under ``dist.sweep``;
        each tracing worker's ``worker.attach`` starts at its fork and
        ends with its first CLAIM reply."""
        from repro.obs.tracing import Trace

        trace_path = tmp_path / "trace.json"
        distributed_sweep(
            tiny_grid(4), tmp_path / "store", workers=2, chunk_size=2,
            log=lambda line: None, timeout=300, trace=trace_path,
        )
        spans = Trace.from_file(trace_path).spans
        (sweep,) = [s for s in spans if s.name == "dist.sweep"]
        (start,) = [s for s in spans if s.name == "dist.start_workers"]
        assert start.parent == sweep.id
        assert start.args == {"workers": 2}
        attaches = [s for s in spans if s.name == "worker.attach"]
        assert attaches
        for attach in attaches:
            assert attach.parent is None
            first = min(
                (s for s in spans
                 if s.name == "worker.claim" and s.proc == attach.proc),
                key=lambda s: s.start_ns,
            )
            # Same process, same clock: the first claim nests inside.
            assert attach.start_ns <= first.start_ns
            assert abs(
                attach.start_ns + attach.dur_ns
                - (first.start_ns + first.dur_ns)
            ) < 1000
        assert len({s.proc for s in attaches}) == len(attaches)


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
