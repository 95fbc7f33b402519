"""The sweep worker: a claim loop around the engine's spill executor.

``repro sweep-worker --connect HOST:PORT`` runs :func:`run_worker`,
and so does each worker process that
:func:`~repro.dist.executor.distributed_sweep` forks for its local
pool: CLAIM a chunk, execute its configs through one warm
:class:`~repro.api.engine.Engine` attached to the coordinator-named
store (``resume=True``, ``spill=True`` — records persist and drop, so
worker memory stays bounded however large the sweep), report PROGRESS
between sub-batches (which renews the lease), COMPLETE, repeat until
the coordinator answers ``done``.  A ``stale_lease`` error at any
point means the chunk was stolen — the worker abandons it mid-flight
and claims fresh work; the store's idempotence makes the overlap
harmless.

Workers hold no sweep state: everything they know arrives in the CHUNK
reply (configs, store path, lease TTL), so a worker can attach from
any machine that shares the store path.

Two environment knobs exist for the test and bench harnesses, both
ignored when unset:

* ``REPRO_DIST_TEST_STALL_S`` — after the first sub-batch of the first
  chunk, sleep this long *without renewing the lease* (how the
  differential test makes a worker lose its chunk deterministically,
  and how the SIGKILL test parks a victim mid-chunk);
* ``REPRO_DIST_RUN_STALL_S`` — sleep this long per config after
  computing it, simulating heavier per-run cost; the dist bench
  applies it identically to both its passes so the measured speedup
  reflects executor overlap, not machine core count.
"""

from __future__ import annotations

import os
import socket
import time

from ..errors import ServiceError
from ..obs import events as obs_events
from ..obs import tracing as obs_tracing
from ..service import protocol
from ..service.client import RemoteError

__all__ = ["CoordinatorClient", "run_worker", "PROGRESS_BATCH"]

#: Configs a worker computes between PROGRESS reports; each report
#: renews the lease, so this bounds how much work one heartbeat covers.
PROGRESS_BATCH = 4


class CoordinatorClient:
    """One request/reply exchange per call against a sweep coordinator.

    The same one-connection-per-exchange discipline as
    :class:`~repro.service.client.ServeClient`: the coordinator is the
    stateful side, clients stay trivially restartable.  Typed ERROR
    replies surface as :class:`~repro.service.client.RemoteError` with
    the machine code preserved (callers branch on ``stale_lease``).
    """

    def __init__(self, host: str, port: int, worker: str,
                 timeout: float = 30.0) -> None:
        """``worker`` is this client's claim identity."""
        self.host = host
        self.port = port
        self.worker = worker
        self.timeout = timeout

    def _exchange(self, message: dict) -> dict:
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                protocol.send_message(sock, message)
                reply = protocol.recv_message(sock)
        except protocol.ConnectionClosed as error:
            raise ServiceError(
                f"coordinator at {self.host}:{self.port} closed the "
                f"connection without replying"
            ) from error
        except OSError as error:
            raise ServiceError(
                f"cannot reach coordinator at {self.host}:{self.port}: "
                f"{error.strerror or error} (is the sweep still running?)"
            ) from error
        if reply.get("type") == "ERROR":
            raise RemoteError(
                reply.get("error", "unspecified coordinator error"),
                code=reply.get("code", "bad_message"),
            )
        return reply

    def _request(self, rtype: str, trace: list | None, **fields) -> dict:
        message = protocol.request(rtype, worker=self.worker, **fields)
        if trace:
            message["trace"] = trace
        return self._exchange(message)

    def claim(self, trace: list | None = None) -> dict:
        """Ask for the next chunk; a CHUNK or EMPTY reply dict.

        ``trace`` (here and on the other verbs) is an optional list of
        drained span records to ship to a tracing coordinator.
        """
        return self._request("CLAIM", trace)

    def heartbeat(self, chunk: int, trace: list | None = None) -> dict:
        """Renew the lease on ``chunk``."""
        return self._request("HEARTBEAT", trace, chunk=chunk)

    def progress(self, chunk: int, completed: int,
                 trace: list | None = None) -> dict:
        """Report ``completed`` configs done in ``chunk``; renews too."""
        return self._request("PROGRESS", trace, chunk=chunk,
                             completed=completed)

    def complete(self, chunk: int, trace: list | None = None) -> dict:
        """Mark ``chunk`` finished and release its lease."""
        return self._request("COMPLETE", trace, chunk=chunk)

    def status(self) -> dict:
        """The coordinator's STATUS body."""
        reply = self._exchange(protocol.request("STATUS"))
        return {
            key: value for key, value in reply.items()
            if key not in ("v", "type")
        }

    def ping(self) -> bool:
        """True when a coordinator answers at ``(host, port)``."""
        try:
            return self._exchange(protocol.request("PING"))["type"] == "PONG"
        except ServiceError:
            return False


def _env_stall(name: str) -> float:
    value = os.environ.get(name, "")
    try:
        return max(0.0, float(value)) if value else 0.0
    except ValueError:
        return 0.0


def run_worker(host: str, port: int, worker: str | None = None,
               max_workers: int | None = None, log=None,
               started_ns: int | None = None) -> dict:
    """Attach one worker to a coordinator; returns a summary dict.

    Loops CLAIM → execute → COMPLETE until the coordinator reports the
    sweep done (or vanishes after at least one successful exchange —
    a coordinator that exits early means the sweep finished without
    this worker's last CLAIM, which is a clean end, not a failure).
    ``worker`` defaults to ``w-<hostname>-<pid>``; ``max_workers``
    passes through to ``Engine.run_many`` for intra-worker
    parallelism.  Returns ``{"worker", "chunks", "configs",
    "abandoned"}``.

    When a CHUNK reply carries ``trace: true`` (a tracing
    coordinator), the worker activates a local tracer (process label
    ``worker:<id>``), wraps each claim exchange and chunk execution in
    spans — the engine's own spans nest under the chunk span — and
    drains the buffer into the ``trace`` field of every subsequent
    request, so the coordinator assembles one sweep-wide trace.  Its
    first span, ``worker.attach``, runs from ``started_ns`` (a
    :func:`time.perf_counter_ns` reading: the fork, for a worker the
    executor forked; this call, by default) to the first CLAIM reply,
    which is the worker's start-up as the sweep sees it.
    """
    from ..api.config import ExperimentConfig
    from ..api.engine import Engine

    if started_ns is None:
        started_ns = time.perf_counter_ns()
    if worker is None:
        worker = f"w-{socket.gethostname()}-{os.getpid()}"
    client = CoordinatorClient(host, port, worker)
    events = obs_events.EventLog("repro-sweep-worker", sink=log)
    tracer: obs_tracing.Tracer | None = None
    own_tracer = False

    def drained() -> list | None:
        # Only ship when the tracer is private to this worker: a
        # shared in-process tracer already holds the spans locally.
        if own_tracer and tracer is not None:
            return tracer.drain()
        return None

    test_stall = _env_stall("REPRO_DIST_TEST_STALL_S")
    run_stall = _env_stall("REPRO_DIST_RUN_STALL_S")
    engine: Engine | None = None
    chunks_done = 0
    configs_done = 0
    abandoned = 0
    attached = False
    # The (start, end) of worker.attach until a tracer can record it.
    attach = None
    events.emit("started", worker=worker, coordinator=f"{host}:{port}")
    try:
        while True:
            claim_start = time.perf_counter_ns()
            try:
                reply = client.claim(trace=drained())
            except RemoteError:
                raise
            except ServiceError:
                if attached:
                    # The coordinator finished and left between claims.
                    break
                raise
            claim_end = time.perf_counter_ns()
            if not attached:
                attach = (started_ns, claim_end)
            attached = True
            granted = reply["type"] == "CHUNK"
            if granted and reply.get("trace") and tracer is None:
                tracer = obs_tracing.active_tracer()
                if tracer is None:
                    tracer = obs_tracing.activate(proc=f"worker:{worker}")
                    own_tracer = True
            if tracer is not None:
                if attach is not None:
                    tracer.record("worker.attach", *attach)
                    attach = None
                extra = {"chunk": reply["chunk"]} if granted else {}
                tracer.record(
                    "worker.claim", claim_start, claim_end,
                    granted=granted, **extra,
                )
            if not granted:
                if reply.get("done"):
                    break
                # retry_s paces CLAIMs from when each was sent: a
                # coordinator that held this one has already waited.
                held_s = (claim_end - claim_start) / 1e9
                time.sleep(max(0.0, float(reply.get("retry_s", 0.5)) - held_s))
                continue
            chunk = reply["chunk"]
            configs = tuple(
                ExperimentConfig.from_dict(data)
                for data in reply["configs"]
            )
            if engine is None:
                engine = Engine(store=reply["store"], resume=True)
            stolen = False
            completed = 0
            chunk_span = obs_tracing.span(
                "worker.chunk", chunk=chunk, configs=len(configs)
            )
            with chunk_span:
                for start in range(0, len(configs), PROGRESS_BATCH):
                    batch = configs[start : start + PROGRESS_BATCH]
                    engine.run_many(
                        batch, max_workers=max_workers, spill=True
                    )
                    if run_stall:
                        time.sleep(run_stall * len(batch))
                    completed += len(batch)
                    if test_stall and chunks_done == 0 and start == 0:
                        # Park without renewing: lease expires under us.
                        events.emit("test_stall", chunk=chunk,
                                    stall_s=test_stall)
                        time.sleep(test_stall)
                        test_stall = 0.0
                    try:
                        client.progress(chunk, completed, trace=drained())
                    except RemoteError as error:
                        if error.code == "stale_lease":
                            stolen = True
                            break
                        raise
                chunk_span.annotate(completed=not stolen)
            if stolen:
                abandoned += 1
                events.emit("chunk_abandoned", chunk=chunk, worker=worker)
                continue
            try:
                done = client.complete(
                    chunk, trace=drained()
                ).get("done", False)
            except RemoteError as error:
                if error.code == "stale_lease":
                    abandoned += 1
                    events.emit("chunk_abandoned", chunk=chunk,
                                worker=worker)
                    continue
                raise
            chunks_done += 1
            configs_done += len(configs)
            if done:
                break
    finally:
        if own_tracer:
            obs_tracing.deactivate()
    events.emit(
        "finished", worker=worker, chunks=chunks_done,
        configs=configs_done, abandoned=abandoned,
    )
    return {
        "worker": worker,
        "chunks": chunks_done,
        "configs": configs_done,
        "abandoned": abandoned,
    }
