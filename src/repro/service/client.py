"""A blocking client for the serve daemon, and the CLI verbs over it.

:class:`ServeClient` speaks :mod:`repro.service.protocol` to a running
``repro serve`` daemon.  Every call opens one connection, performs one
request/reply exchange and closes — the daemon is the stateful side;
clients stay trivially restartable and safe to use from any process
(``repro submit`` in a second shell is exactly this class).

Typed ``ERROR`` replies and socket-level failures both surface as
:class:`~repro.errors.ServiceError` — the error reply's machine code is
kept on the exception as ``code`` — so the CLI's one-line exit-2
handling covers every failure mode.
"""

from __future__ import annotations

import socket

from ..errors import ServiceError
from . import protocol
from .protocol import DEFAULT_HOST, DEFAULT_PORT

__all__ = ["ServeClient", "RemoteError"]


class RemoteError(ServiceError):
    """The daemon answered with a typed ERROR reply.

    ``code`` carries the reply's machine-readable error code (one of
    :data:`repro.service.protocol.ERROR_CODES`), so callers can branch
    on ``job_failed`` vs ``draining`` without parsing the message.
    """

    def __init__(self, message: str, code: str = "bad_message") -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """One request/reply exchange per call against a serve daemon.

    ``timeout`` bounds each socket operation; RESULT waits size their
    timeout to the requested job wait plus slack, so a long-running job
    does not trip the transport timeout.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 timeout: float = 30.0) -> None:
        """See the class docstring."""
        self.host = host
        self.port = port
        self.timeout = timeout

    def _exchange(self, message: dict,
                  timeout: float | None = None) -> dict:
        try:
            with socket.create_connection(
                (self.host, self.port),
                timeout=timeout if timeout is not None else self.timeout,
            ) as sock:
                protocol.send_message(sock, message)
                reply = protocol.recv_message(sock)
        except protocol.ConnectionClosed as error:
            raise ServiceError(
                f"daemon at {self.host}:{self.port} closed the "
                f"connection without replying"
            ) from error
        except OSError as error:
            raise ServiceError(
                f"cannot reach daemon at {self.host}:{self.port}: "
                f"{error.strerror or error} (is repro serve running?)"
            ) from error
        if reply.get("type") == "ERROR":
            raise RemoteError(
                reply.get("error", "unspecified daemon error"),
                code=reply.get("code", "bad_message"),
            )
        return reply

    # -- the protocol verbs ------------------------------------------------------

    def submit(self, config, kind: str = "qos",
               records: bool = False, trace: bool = False) -> str:
        """Enqueue one experiment; returns its job id.

        ``config`` is an :class:`~repro.api.config.ExperimentConfig`
        (sent as its ``to_dict()``) or a dict of any subset of those
        fields, sent unchanged: the daemon fills the missing fields
        with their defaults, canonicalises registry keys and validates,
        so a bad config surfaces here as a :class:`RemoteError` with
        code ``bad_config``, and this client never loads the engine.
        ``kind`` picks the execution path (``run``, ``fleet`` or
        ``qos``); ``records`` asks the eventual RESULT to include
        per-device records; ``trace`` asks a tracing daemon to attach
        the job's span subtree to the RESULT payload under ``trace``
        (an empty list when the daemon is not tracing).
        """
        if hasattr(config, "to_dict"):
            config = config.to_dict()
        fields = {"kind": kind, "config": config, "records": records}
        if trace:
            fields["trace"] = True
        reply = self._exchange(protocol.request("SUBMIT", **fields))
        return reply["job_id"]

    def status(self, job_id: str | None = None) -> dict:
        """Daemon-wide state, or one job's state when ``job_id`` is given."""
        fields = {} if job_id is None else {"job_id": job_id}
        reply = self._exchange(protocol.request("STATUS", **fields))
        reply.pop("v", None)
        reply.pop("type", None)
        return reply

    def result(self, job_id: str, wait: bool = True,
               timeout: float = 300.0) -> dict:
        """Fetch a job's result payload, blocking until done by default.

        Returns the payload dict (``kind`` plus ``result``/``row``);
        raises :class:`RemoteError` with code ``job_failed`` if the job
        raised inside the daemon and ``job_pending`` if it has not
        finished within ``timeout`` (or at all, with ``wait=False``).
        """
        reply = self._exchange(
            protocol.request(
                "RESULT", job_id=job_id, wait=wait, timeout=timeout
            ),
            timeout=(timeout + self.timeout) if wait else None,
        )
        return {
            key: value for key, value in reply.items()
            if key not in ("v", "type")
        }

    def metrics(self) -> str:
        """The daemon's metrics registry as InfluxDB line protocol."""
        return self._exchange(protocol.request("METRICS"))["body"]

    def drain(self, timeout: float = 300.0) -> int:
        """Stop new submissions, wait for quiescence; returns jobs done."""
        reply = self._exchange(
            protocol.request("DRAIN"), timeout=timeout + self.timeout
        )
        return reply["jobs_done"]

    def shutdown(self, timeout: float = 300.0) -> None:
        """Ask the daemon to drain and stop."""
        self._exchange(
            protocol.request("SHUTDOWN"), timeout=timeout + self.timeout
        )

    def ping(self) -> bool:
        """True when a daemon answers at ``(host, port)``."""
        try:
            return self._exchange(protocol.request("PING"))["type"] == "PONG"
        except ServiceError:
            return False
