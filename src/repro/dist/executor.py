"""One-call distributed sweeps: coordinator + local worker pool.

:func:`distributed_sweep` is what ``repro sweep --workers N --store
DIR`` runs: bind an in-process :class:`~repro.dist.coordinator.
SweepCoordinator` on an ephemeral port, fork N worker processes from
this one (each runs :func:`~repro.dist.worker.run_worker` against the
coordinator), start the coordinator's acceptor, wait for every chunk
to complete, and return the grid's
:class:`~repro.api.results.StoredResultSet` — the same lazy,
byte-identical-export view a single-process spill sweep returns,
because both are just reads of the same content-addressed store.

The local pool is forked, not spawned: the coordinator process has
already imported numpy and the engine to expand the grid, so a forked
worker sends its first CLAIM within milliseconds, where a fresh
``python -m repro sweep-worker`` interpreter spent ~0.5 s importing
them again.  The forks happen after the listening socket is bound and
before the coordinator starts any thread, so each child copies a
single-threaded process; a child closes its copies of the
coordinator's sockets, sends stdout to ``/dev/null`` and stderr into
a pipe the parent keeps for failure reports, and leaves with
``os._exit``.  Forking needs POSIX; where ``os.fork`` is missing, run
``--workers 0`` and attach ``repro sweep-worker --connect`` processes.

Worker death is survivable by design (the next CLAIM steals the
expired chunk), but *total* worker loss would wait forever; the
executor watches its pool and fails fast with the dead workers' last
stderr lines when nobody is left to finish the sweep.  Extra remote
workers may attach to the printed port at any time — the pool here is
a convenience, not a boundary.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import time
import traceback
from typing import NoReturn

from ..api.results import StoredResultSet
from ..errors import ReproError, ServiceError
from ..obs import tracing as obs_tracing
from .coordinator import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_LEASE_S,
    SweepCoordinator,
)
from .worker import run_worker

__all__ = ["ForkedWorker", "distributed_sweep", "fork_worker"]

#: How often the executor polls the coordinator and its worker pool.
POLL_S = 0.1


class ForkedWorker:
    """The parent's handle on one forked worker process.

    Mirrors the slice of :class:`subprocess.Popen` the pool loop uses:
    :meth:`poll`, :meth:`wait`, :meth:`kill`, ``returncode`` and
    ``stderr`` (a text stream reading the child's stderr pipe).
    """

    def __init__(self, name: str, pid: int, stderr) -> None:
        """Wrap the child ``pid`` whose stderr pipe ``stderr`` reads."""
        self.name = name
        self.pid = pid
        self.stderr = stderr
        self.returncode: int | None = None

    def _reap(self, flags: int) -> None:
        try:
            pid, status = os.waitpid(self.pid, flags)
        except ChildProcessError:
            # Someone else reaped it (SIGCHLD ignored): as Popen, read 0.
            self.returncode = 0
            return
        if pid:
            self.returncode = os.waitstatus_to_exitcode(status)

    def poll(self) -> int | None:
        """Reap the child if it has exited; its exit code, else None.

        A child killed by a signal reads ``-signum``, as with Popen.
        """
        if self.returncode is None:
            self._reap(os.WNOHANG)
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        """Block until the child exits (:class:`TimeoutError` after
        ``timeout`` seconds); returns its exit code."""
        if timeout is None:
            if self.returncode is None:
                self._reap(0)
            return self.returncode
        deadline = time.monotonic() + timeout
        while self.poll() is None:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"worker {self.name} still running after {timeout}s"
                )
            time.sleep(0.01)
        return self.returncode

    def kill(self) -> None:
        """SIGKILL the child unless it has already been reaped."""
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)


def fork_worker(coordinator: SweepCoordinator, name: str,
                env: dict | None = None, siblings=()) -> ForkedWorker:
    """Fork one worker process that runs ``run_worker`` as ``name``.

    Call it after ``coordinator.bind()`` and while this process runs no
    other thread: a forked child holds only the forking thread, so a
    lock another thread held at the fork would stay locked in it.  The
    child applies ``env`` to its ``os.environ``, closes its copies of
    the coordinator's sockets and of the ``siblings``' stderr pipes
    (earlier :class:`ForkedWorker` handles), and exits 0 when the sweep
    is done, 2 after one ``error: ...`` line for a library error, or 1
    after a traceback.  It never returns into the caller.
    """
    # Nothing buffered before the fork may be written twice.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    read_fd, write_fd = os.pipe()
    forked_ns = time.perf_counter_ns()
    try:
        pid = os.fork()
    except OSError as error:
        os.close(read_fd)
        os.close(write_fd)
        raise ServiceError(
            f"cannot fork worker {name}: {error.strerror or error}"
        ) from error
    if pid == 0:  # pragma: no cover - runs in the child, which _exits
        inherited = [read_fd, *(s.stderr.fileno() for s in siblings)]
        _worker_main(coordinator, name, env, write_fd, inherited, forked_ns)
    os.close(write_fd)
    return ForkedWorker(name, pid, os.fdopen(read_fd, errors="replace"))


def _worker_main(coordinator, name, env, stderr_fd, inherited,
                 forked_ns) -> NoReturn:  # pragma: no cover - forked child
    """A forked worker's whole life; leaves through ``os._exit``."""
    code = 1
    try:
        coordinator.close_inherited()
        for fd in inherited:
            os.close(fd)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(stderr_fd, 2)
        os.close(devnull)
        os.close(stderr_fd)
        sys.stdout = open(1, "w", closefd=False)  # noqa: SIM115
        sys.stderr = open(2, "w", buffering=1, closefd=False)  # noqa: SIM115
        if env:
            os.environ.update(env)
        # The parent's tracer came along with the fork; run_worker
        # starts its own worker:<id> tracer and ships its spans.
        obs_tracing.deactivate()
        run_worker(coordinator.host, coordinator.port, worker=name,
                   started_ns=forked_ns)
        code = 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 2
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def distributed_sweep(
    configs,
    store,
    workers: int = 2,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    lease_s: float = DEFAULT_LEASE_S,
    host: str = "127.0.0.1",
    port: int = 0,
    log=None,
    env: dict | None = None,
    timeout: float | None = None,
    status_sink=None,
    trace=None,
) -> StoredResultSet:
    """Run a config grid across a local pool of worker processes.

    ``configs`` is the expanded (and, if requested, sharded) grid;
    ``store`` the shared experiment store (everything lands there).
    ``workers=0`` starts a coordinator with no local pool and blocks
    until remotely-attached workers finish the sweep — the CI smoke
    test and multi-machine runs use this.  ``timeout`` bounds the whole
    sweep (``None`` = wait forever, as long as live workers remain).
    ``status_sink`` receives the coordinator's final STATUS body (how
    the CLI reports chunk/steal counts).  Returns the grid's
    :class:`StoredResultSet`.

    ``trace`` names a file to receive the sweep-wide merged trace
    (Chrome trace JSON, or a raw span dump for a ``.jsonl`` path):
    a tracer is activated for the coordinator process (unless one
    already is), CHUNK replies ask every worker to record and ship
    spans back, and the merged timeline is written when the sweep
    ends.  ``None`` leaves tracing exactly as the caller set it up.
    """
    if workers < 0:
        raise ServiceError(f"need a non-negative worker count, got {workers}")
    own_tracer = False
    if trace is not None and obs_tracing.active_tracer() is None:
        obs_tracing.activate(proc="coordinator")
        own_tracer = True
    try:
        with obs_tracing.span(
            "dist.sweep", workers=workers, configs=len(configs)
        ):
            return _distributed_sweep(
                configs, store, workers, chunk_size, lease_s,
                host, port, log, env, timeout, status_sink,
            )
    finally:
        tracer = obs_tracing.active_tracer()
        if trace is not None and tracer is not None:
            tracer.trace().write(trace)
        if own_tracer:
            obs_tracing.deactivate()


def _distributed_sweep(
    configs, store, workers, chunk_size, lease_s,
    host, port, log, env, timeout, status_sink,
) -> StoredResultSet:
    """The :func:`distributed_sweep` body (split out for the span)."""
    if workers and not hasattr(os, "fork"):
        raise ServiceError(
            "a local worker pool is forked from this process, and this "
            "platform has no os.fork: run with --workers 0 and attach "
            "workers with repro sweep-worker --connect HOST:PORT"
        )
    coordinator = SweepCoordinator(
        configs, store, host=host, port=port,
        chunk_size=chunk_size, lease_s=lease_s, log=log,
    )
    # Bind first, fork the pool, then start the acceptor thread: each
    # child must copy a process that runs no other thread.
    coordinator.bind()
    children: list[ForkedWorker] = []
    failures = []
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        with obs_tracing.span("dist.start_workers", workers=workers):
            for index in range(workers):
                children.append(fork_worker(
                    coordinator, f"w{index}-{os.getpid()}", env=env,
                    siblings=children,
                ))
        coordinator.start()
        pool = list(children)
        while not coordinator.wait(POLL_S):
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"distributed sweep timed out after {timeout:.1f}s "
                    f"({coordinator.status()['chunks']})"
                )
            for child in [c for c in pool if c.poll() is not None]:
                pool.remove(child)
                if child.returncode != 0:
                    tail = child.stderr.read().strip().splitlines()[-3:]
                    failures.append(
                        f"{child.name} exited {child.returncode}"
                        + (f": {' | '.join(tail)}" if tail else "")
                    )
            if workers and not pool and not coordinator.done:
                chunks = coordinator.status()["chunks"]
                detail = "; ".join(failures) or "all workers exited early"
                raise ServiceError(
                    f"distributed sweep stalled: no live workers remain "
                    f"and {chunks['completed']}/{chunks['total']} chunks "
                    f"are done ({detail})"
                )
        for child in pool:
            # Workers leave with the sweep; the finally kills stragglers.
            with contextlib.suppress(TimeoutError):
                child.wait(timeout=30)
        if status_sink is not None:
            status_sink(coordinator.status())
    finally:
        # Reap every child, whatever ended the sweep: none is left
        # running or as a zombie.
        for child in children:
            child.kill()
            child.wait()
            child.stderr.close()
        coordinator.stop()
    from ..api.engine import _coerce_store

    return StoredResultSet(_coerce_store(store), tuple(configs))
