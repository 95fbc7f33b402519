"""The sweep coordinator: chunks, leases and work-stealing over TCP.

One coordinator owns one sweep: the grid is split once into chunks
that keep each runtime-key group together
(:func:`repro.store.sharding.runtime_chunks`) and served to workers
over the v2 wire protocol.  A CLAIM hands out the largest available
chunk — preferring never-granted chunks, then *stealing* chunks whose
lease expired (a dead or wedged worker) — with a
:class:`~repro.dist.leases.LeaseManager` grant whose files live
beside the store, so grants survive a coordinator restart.  HEARTBEAT
and PROGRESS renew the lease; COMPLETE retires the chunk and releases
it.  When every chunk is complete the done event fires, further CLAIMs
answer ``{"type": "EMPTY", "done": true}``, and workers drain away.

The coordinator never computes and never aggregates results — workers
write straight into the shared store, which is what makes stealing
safe: re-running a half-finished chunk re-serves the finished configs
from the store and computes only the remainder.

Live observability: PROGRESS reports feed a
:class:`~repro.service.telemetry.MetricsRegistry` (counters per worker
plus sweep-wide gauges), scraped over METRICS as line protocol or over
STATUS as the JSON body ``repro status --json`` renders.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from ..errors import ProtocolError, ServiceError
from ..obs import events as obs_events
from ..obs import tracing as obs_tracing
from ..service import protocol
from ..service.protocol import DEFAULT_HOST
from ..service.server import FrameServer
from ..service.telemetry import MetricsRegistry
from ..store.sharding import runtime_chunks
from .leases import LeaseManager

__all__ = ["SweepCoordinator", "DEFAULT_CHUNK_SIZE", "DEFAULT_LEASE_S"]

#: Configs per chunk: small enough that stealing a dead worker's chunk
#: is cheap, large enough that claim round-trips stay negligible.
DEFAULT_CHUNK_SIZE = 8

#: Seconds a granted chunk lives without a heartbeat before any idle
#: worker may steal it.
DEFAULT_LEASE_S = 30.0

#: When every remaining chunk is under a live lease, a CLAIM is held up
#: to this long for the sweep to finish before its EMPTY reply, which
#: tells the worker to re-CLAIM this long after it sent the CLAIM.
RETRY_S = 0.5


@dataclass
class _Chunk:
    """One unit of work travelling through the coordinator."""

    index: int
    configs: tuple
    done: bool = False
    #: Configs the current holder has reported finished (PROGRESS).
    completed: int = 0
    #: Times this chunk was granted (1 = never stolen).
    grants: int = 0


@dataclass
class _Worker:
    """Per-worker accounting behind STATUS throughput numbers."""

    first_seen: float
    last_seen: float
    chunks_completed: int = 0
    configs_completed: int = 0
    #: Progress inside the currently-held chunk (not yet COMPLETE).
    inflight: int = 0

    def throughput(self, now: float) -> float:
        """Configs per second over this worker's observed lifetime."""
        elapsed = max(now - self.first_seen, 1e-9)
        return (self.configs_completed + self.inflight) / elapsed


class SweepCoordinator:
    """Serves one sweep grid to work-stealing workers.

    ``configs`` is the (already sharded, if requested) grid;
    ``store`` the shared experiment store workers write into (a
    :class:`~repro.store.Store` or directory path).  ``chunk_size``,
    ``lease_s`` and ``clock`` parameterise chunking and lease expiry
    (tests inject a manual clock); ``log`` overrides the structured
    stderr logger.  Start with :meth:`start`, wait on :meth:`wait`,
    stop with :meth:`stop` — or drive requests directly through
    :meth:`dispatch` (the lease tests do).  :meth:`bind` alone opens
    the socket without a thread, for callers that fork workers first.
    """

    def __init__(
        self,
        configs,
        store,
        host: str = DEFAULT_HOST,
        port: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lease_s: float = DEFAULT_LEASE_S,
        clock=time.time,
        log=None,
    ) -> None:
        """See the class docstring."""
        from ..api.engine import _coerce_store

        self.store = _coerce_store(store)
        if self.store is None:
            raise ServiceError("a sweep coordinator needs a store")
        self.configs = tuple(configs)
        self.host = host
        self.requested_port = port
        self.clock = clock
        self._log_sink = log
        self.events = obs_events.EventLog("repro-sweep-coordinator", sink=log)
        self._chunks = [
            _Chunk(index=i, configs=chunk)
            for i, chunk in enumerate(runtime_chunks(self.configs, chunk_size))
        ]
        self.leases = LeaseManager(
            self.store.root / "leases", ttl_s=lease_s, clock=clock
        )
        self._lock = threading.Lock()
        self._workers: dict = {}
        self._done = threading.Event()
        if not self._chunks:
            self._done.set()
        self._server: FrameServer | None = None
        self.metrics = MetricsRegistry()
        sweep = "repro_dist_sweep"
        self._m_total = self.metrics.gauge(sweep, "chunks_total")
        self._m_total.set(len(self._chunks))
        self._m_completed = self.metrics.counter(sweep, "chunks_completed")
        self._m_stolen = self.metrics.counter(sweep, "chunks_stolen")
        self._m_configs = self.metrics.counter(sweep, "configs_completed")
        self.metrics.gauge(sweep, "configs_total").set(len(self.configs))

    # -- lifecycle ---------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after :meth:`start`)."""
        return FrameServer.port_of(self._server, self.requested_port)

    def bind(self) -> None:
        """Bind and listen on the socket without starting any thread.

        Connections queue in the listen backlog until :meth:`start`, so
        a caller may fork worker processes in between, while this
        process is still single-threaded.
        """
        if self._server is not None:
            raise ServiceError("coordinator already bound")
        self._server = FrameServer.listen(
            self.host, self.requested_port, self
        )

    def start(self) -> None:
        """Bind the socket (unless :meth:`bind` did) and start the
        acceptor thread."""
        if self._server is None:
            self.bind()
        elif self._server.started:
            raise ServiceError("coordinator already started")
        self._server.start("sweep-coordinator")
        obs_events.install(self.events)
        self.events.emit(
            "listening", host=self.host, port=self.port, pid=os.getpid(),
            chunks=len(self._chunks), configs=len(self.configs),
            store=str(self.store.root),
        )

    def close_inherited(self) -> None:
        """In a process forked after :meth:`bind`, close this process's
        copies of the coordinator's sockets; the parent keeps serving."""
        if self._server is not None:
            self._server.close()

    def stop(self) -> None:
        """Stop the acceptor and close the socket."""
        server, self._server = self._server, None
        if server is None:
            return
        server.stop()
        self.events.emit(
            "stopped", done=self._done.is_set(),
            chunks_completed=self._m_completed.value,
        )
        obs_events.uninstall(self.events)
        self.events.close()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every chunk completes; True when the sweep is done."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        """Whether every chunk has been completed."""
        return self._done.is_set()

    # -- request dispatch --------------------------------------------------------

    def dispatch(self, message: dict) -> dict:
        """Answer one inbound request message with a reply message."""
        rtype = protocol.validate_request(message)
        if rtype in protocol.DIST_TYPES and message.get("trace"):
            # Workers drain their span buffers into every sweep verb;
            # fold them into this process's trace for the merged export.
            tracer = obs_tracing.active_tracer()
            if tracer is not None:
                tracer.add_foreign_spans(message["trace"])
        if rtype == "PING":
            return protocol.request("PING") | {"type": "PONG"}
        if rtype == "CLAIM":
            return self._handle_claim(message)
        if rtype == "HEARTBEAT":
            return self._handle_renew(message, completed=None)
        if rtype == "PROGRESS":
            return self._handle_renew(
                message, completed=message["completed"]
            )
        if rtype == "COMPLETE":
            return self._handle_complete(message)
        if rtype == "STATUS":
            return {
                "v": protocol.PROTOCOL_VERSION,
                "type": "STATUS",
                **self.status(),
            }
        if rtype == "METRICS":
            obs = "repro_obs"
            self.metrics.gauge(obs, "spans_recorded").set(
                self.spans_recorded
            )
            self.metrics.gauge(obs, "events_logged").set(
                self.events.events_logged
            )
            return {
                "v": protocol.PROTOCOL_VERSION,
                "type": "METRICS",
                "body": self.metrics.render(),
            }
        if rtype == "SHUTDOWN":
            threading.Thread(target=self.stop, daemon=True).start()
            return {"v": protocol.PROTOCOL_VERSION, "type": "STOPPING"}
        raise ProtocolError(
            f"{rtype} is not served by a sweep coordinator "
            f"(send it to repro serve)",
            code="unsupported",
        )

    def _touch(self, worker: str) -> _Worker:
        now = self.clock()
        state = self._workers.get(worker)
        if state is None:
            state = self._workers[worker] = _Worker(
                first_seen=now, last_seen=now
            )
        state.last_seen = now
        return state

    def _chunk(self, message: dict) -> _Chunk:
        index = message["chunk"]
        if not 0 <= index < len(self._chunks):
            raise ProtocolError(
                f"unknown chunk {index} (sweep has {len(self._chunks)})",
                code="unknown_chunk",
            )
        return self._chunks[index]

    def _handle_claim(self, message: dict) -> dict:
        worker = message["worker"]
        granted, stolen = self._grant(worker)
        if granted is None and not self._done.is_set():
            # Hold the idle worker (outside the lock) until the sweep
            # ends, so it exits with the last COMPLETE instead of up to
            # RETRY_S later; then look again, as a lease may have expired.
            self._done.wait(RETRY_S)
            granted, stolen = self._grant(worker)
        if granted is None:
            return {
                "v": protocol.PROTOCOL_VERSION,
                "type": "EMPTY",
                "done": self._done.is_set(),
                "retry_s": RETRY_S,
            }
        self.events.emit(
            "chunk_granted", chunk=granted.index, worker=worker,
            configs=len(granted.configs), stolen=int(stolen),
        )
        reply = {
            "v": protocol.PROTOCOL_VERSION,
            "type": "CHUNK",
            "chunk": granted.index,
            "configs": [config.to_dict() for config in granted.configs],
            "lease_s": self.leases.ttl_s,
            "store": str(self.store.root),
        }
        if obs_tracing.active_tracer() is not None:
            reply["trace"] = True
        return reply

    def _grant(self, worker: str):
        """Grant ``worker`` the next claimable chunk, if any, under the
        lock; returns ``(chunk, stolen)`` like :meth:`_next_grant`."""
        with self._lock:
            self._touch(worker)
            granted, stolen = self._next_grant(worker)
            if granted is not None:
                granted.grants += 1
                granted.completed = 0
                if stolen:
                    self._m_stolen.inc()
        return granted, stolen

    def _next_grant(self, worker: str):
        """The best claimable chunk: fresh first, then expired grants.

        Fresh chunks go out largest-first (the classic LPT greedy):
        packing runtime groups leaves chunk sizes uneven, and handing the
        big ones out early means the sweep's tail — the last chunks
        finishing while other workers idle — is bounded by the
        *smallest* chunks rather than the largest.  Ties break on
        index, so grant order stays deterministic.

        Returns ``(chunk, stolen)``; ``(None, False)`` when every
        pending chunk is under a live lease (or the sweep is done).
        """
        fresh = []
        reclaimable = []
        for chunk in self._chunks:
            if chunk.done:
                continue
            lease = self.leases.holder(chunk.index)
            if lease is None:
                fresh.append(chunk)
            elif lease.expired(self.clock()):
                reclaimable.append(chunk)
        fresh.sort(key=lambda chunk: (-len(chunk.configs), chunk.index))
        for chunk in fresh:
            if self.leases.claim(chunk.index, worker) is not None:
                return chunk, chunk.grants > 0
        for chunk in reclaimable:
            holder = self.leases.holder(chunk.index)
            if self.leases.claim(chunk.index, worker) is not None:
                self.events.emit(
                    "lease_expired", chunk=chunk.index,
                    worker=holder.worker if holder is not None else "?",
                )
                return chunk, True
        return None, False

    def _handle_renew(self, message: dict, completed) -> dict:
        worker = message["worker"]
        chunk = self._chunk(message)
        with self._lock:
            state = self._touch(worker)
            if chunk.done:
                # The chunk was stolen and finished by someone else;
                # the renewing worker must abandon its copy.
                raise ProtocolError(
                    f"chunk {chunk.index} already completed",
                    code="stale_lease",
                )
            lease = self.leases.renew(chunk.index, worker)
            if completed is not None:
                delta = max(0, completed - chunk.completed)
                chunk.completed = max(chunk.completed, completed)
                state.inflight += delta
                self._m_configs.inc(delta)
                self.metrics.counter(
                    "repro_dist_worker", "configs_completed",
                    {"worker": worker},
                ).inc(delta)
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": "OK",
            "chunk": chunk.index,
            "expires": lease.expires,
        }

    def _handle_complete(self, message: dict) -> dict:
        worker = message["worker"]
        chunk = self._chunk(message)
        with self._lock:
            state = self._touch(worker)
            if chunk.done:
                raise ProtocolError(
                    f"chunk {chunk.index} already completed",
                    code="stale_lease",
                )
            self.leases.release(chunk.index, worker)
            chunk.done = True
            # COMPLETE implies the whole chunk ran, whatever the last
            # PROGRESS said; settle the remainder into the counters.
            delta = len(chunk.configs) - chunk.completed
            chunk.completed = len(chunk.configs)
            state.inflight = 0
            state.chunks_completed += 1
            state.configs_completed += chunk.completed
            self._m_completed.inc()
            if delta > 0:
                self._m_configs.inc(delta)
                self.metrics.counter(
                    "repro_dist_worker", "configs_completed",
                    {"worker": worker},
                ).inc(delta)
            done = all(c.done for c in self._chunks)
        self.events.emit(
            "chunk_completed", chunk=chunk.index, worker=worker,
            configs=len(chunk.configs),
        )
        if done:
            self._done.set()
            self.events.emit(
                "sweep_done", chunks=len(self._chunks),
                configs=len(self.configs),
            )
        return {
            "v": protocol.PROTOCOL_VERSION,
            "type": "OK",
            "chunk": chunk.index,
            "done": done,
        }

    # -- observability -----------------------------------------------------------

    def status(self) -> dict:
        """The coordinator-wide STATUS body (JSON-ready).

        ``chunks`` counts total/pending/leased/completed/stolen;
        ``workers`` maps each worker id to its chunk/config counts and
        configs-per-second throughput; ``configs`` tracks sweep-wide
        completion.
        """
        now = self.clock()
        with self._lock:
            leased = sum(
                1
                for chunk in self._chunks
                if not chunk.done
                and (lease := self.leases.holder(chunk.index)) is not None
                and not lease.expired(now)
            )
            completed = sum(1 for chunk in self._chunks if chunk.done)
            stolen = sum(
                max(0, chunk.grants - 1) for chunk in self._chunks
            )
            workers = {
                name: {
                    "chunks_completed": state.chunks_completed,
                    "configs_completed": state.configs_completed
                    + state.inflight,
                    "throughput_configs_s": state.throughput(now),
                    "last_seen_s": max(0.0, now - state.last_seen),
                }
                for name, state in sorted(self._workers.items())
            }
            configs_done = sum(chunk.completed for chunk in self._chunks)
        return {
            "pid": os.getpid(),
            "host": self.host,
            "port": self.port,
            "done": self._done.is_set(),
            "store": str(self.store.root),
            "lease_s": self.leases.ttl_s,
            "chunks": {
                "total": len(self._chunks),
                "pending": len(self._chunks) - completed - leased,
                "leased": leased,
                "completed": completed,
                "stolen": stolen,
            },
            "configs": {
                "total": len(self.configs),
                "completed": configs_done,
            },
            "workers": workers,
            "spans_recorded": self.spans_recorded,
            "events_logged": self.events.events_logged,
        }

    @property
    def spans_recorded(self) -> int:
        """Spans in the active tracer's buffer scope (0 when off)."""
        tracer = obs_tracing.active_tracer()
        return tracer.spans_recorded if tracer is not None else 0
