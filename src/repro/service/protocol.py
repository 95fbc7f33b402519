"""The serve wire protocol: length-prefixed JSON frames over TCP.

One message is one **frame**: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  Every message is a JSON
object carrying ``"v"`` (the protocol version) and ``"type"`` (one of
:data:`REQUEST_TYPES` for requests; replies are ``"OK"``, a
request-specific payload type, or ``"ERROR"``).  Framing keeps the
protocol trivially parseable from any language — ``struct.pack(">I")``
plus ``json`` — while the version field lets a newer client fail fast
against an older daemon instead of misreading it.

Requests
--------
``SUBMIT``
    ``{"kind": "run"|"fleet"|"qos", "config": {...}, "records": bool}``
    — enqueue one experiment; the config dict holds any subset of the
    :meth:`~repro.api.config.ExperimentConfig.to_dict` fields.  The
    daemon fills the missing ones with their defaults, canonicalises
    registry keys (so every spelling of one experiment shares one job
    label and one store key) and validates, replying ``bad_config`` to
    an unknown key or value.  Replies
    ``{"type": "SUBMITTED", "job_id": ...}``.  The optional ``trace``
    boolean asks the daemon to attach the job's span subtree (a list
    of :meth:`~repro.obs.tracing.Span.to_dict` records) to the job's
    ``RESULT`` reply under ``trace`` — present only when the daemon is
    tracing; frames omitting the field behave exactly as before.
``STATUS``
    ``{}`` for daemon-wide state (uptime, job counters, queue depth,
    engine stats) or ``{"job_id": ...}`` for one job's state.
``RESULT``
    ``{"job_id": ..., "wait": bool, "timeout": seconds}`` — fetch a
    completed job's payload, optionally blocking until it finishes.
``METRICS``
    ``{}`` — the current metrics registry rendered as InfluxDB line
    protocol (see :mod:`repro.service.telemetry`).
``DRAIN``
    ``{}`` — stop accepting submissions, finish every queued and
    in-flight job, then reply.
``SHUTDOWN``
    ``{}`` — drain, reply, and stop the daemon.
``PING``
    ``{}`` — liveness probe; replies ``{"type": "PONG"}``.

Distributed-sweep requests (v2, answered by the
:class:`~repro.dist.coordinator.SweepCoordinator`; the serve daemon
rejects them with a typed ``unsupported`` error)
--------------------------------------------------------------------
``CLAIM``
    ``{"worker": "w-..."}`` — ask for the next available chunk.
    Replies ``{"type": "CHUNK", "chunk": int, "configs": [...],
    "lease_s": float}`` with a lease on the chunk, ``{"type":
    "EMPTY", "done": bool, "retry_s": float}`` when nothing is
    currently claimable, or ``{"type": "EMPTY", "done": true}`` when
    the sweep has finished and the worker should exit.  An EMPTY
    reply may be held for up to ``retry_s`` (answered early with
    ``done: true`` when the sweep finishes meanwhile); the worker
    re-CLAIMs ``retry_s`` after it sent the previous CLAIM.  A tracing
    coordinator sets ``"trace": true`` on CHUNK replies, asking the
    worker to record spans and ship them back.

All four sweep verbs accept an optional ``trace`` field — a list of
span records (:meth:`~repro.obs.tracing.Span.to_dict`) the worker
drained since its last request — which the coordinator merges into
the sweep-wide trace.  Both trace fields are optional in both
directions: a v2 peer that omits them interoperates unchanged, so no
version bump.
``HEARTBEAT``
    ``{"worker": ..., "chunk": int}`` — renew the chunk's lease.
    Replies ``OK``; a ``stale_lease`` error means another worker
    reclaimed the chunk and this worker must abandon it.
``PROGRESS``
    ``{"worker": ..., "chunk": int, "completed": int}`` — report
    configs finished so far in the chunk; renews the lease like
    ``HEARTBEAT`` and feeds the coordinator's live telemetry.
``COMPLETE``
    ``{"worker": ..., "chunk": int}`` — mark the chunk done and
    release its lease.  Replies ``OK`` with ``{"done": bool}``.

Errors are typed replies, never dropped connections::

    {"v": 2, "type": "ERROR", "code": "bad_config", "error": "..."}

with ``code`` one of :data:`ERROR_CODES`.  A job that raises inside the
daemon keeps the daemon serving: the failure surfaces as a
``job_failed`` error reply to the job's ``RESULT`` request.
"""

from __future__ import annotations

import json
import struct

from ..errors import ProtocolError

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "REQUEST_TYPES",
    "DIST_TYPES",
    "SUBMIT_KINDS",
    "ERROR_CODES",
    "ConnectionClosed",
    "encode_frame",
    "decode_frame",
    "send_message",
    "recv_message",
    "request",
    "error_reply",
    "validate_request",
]

#: Daemons and coordinators bind localhost only: the protocol is
#: unauthenticated.
DEFAULT_HOST = "127.0.0.1"

#: Default TCP port of ``repro serve`` (0 picks an ephemeral port).
DEFAULT_PORT = 7787

#: Bumped whenever a message's shape or meaning changes.
#: v2 added the distributed-sweep verbs (CLAIM/HEARTBEAT/PROGRESS/
#: COMPLETE) and the ``unknown_chunk``/``stale_lease``/``unsupported``
#: error codes.
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame's JSON body; a length prefix beyond it is
#: treated as a corrupt stream, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Every request type a daemon must answer.
REQUEST_TYPES = (
    "SUBMIT", "STATUS", "RESULT", "METRICS", "DRAIN", "SHUTDOWN", "PING",
    "CLAIM", "HEARTBEAT", "PROGRESS", "COMPLETE",
)

#: The distributed-sweep verbs a coordinator answers (v2).
DIST_TYPES = ("CLAIM", "HEARTBEAT", "PROGRESS", "COMPLETE")

#: The experiment kinds a SUBMIT may carry (the store's record kinds).
SUBMIT_KINDS = ("run", "fleet", "qos")

#: Machine-readable error codes a typed ERROR reply may carry.
ERROR_CODES = (
    "bad_message",      # unparseable or malformed frame/fields
    "version_mismatch", # client and daemon disagree on PROTOCOL_VERSION
    "unknown_type",     # a type outside REQUEST_TYPES
    "bad_config",       # SUBMIT config failed validation
    "unknown_job",      # STATUS/RESULT for a job id never submitted
    "job_failed",       # RESULT for a job whose execution raised
    "job_pending",      # RESULT with wait=False for an unfinished job
    "draining",         # SUBMIT after a DRAIN/SHUTDOWN was accepted
    "unknown_chunk",    # HEARTBEAT/PROGRESS/COMPLETE for a chunk id
                        # the coordinator never handed out
    "stale_lease",      # the chunk's lease expired and was reclaimed
                        # by another worker; the sender must abandon it
    "unsupported",      # a valid v2 verb this daemon does not serve
                        # (e.g. CLAIM sent to the serve daemon)
)

_LENGTH = struct.Struct(">I")


class ConnectionClosed(ProtocolError):
    """The peer closed the socket cleanly between frames."""

    def __init__(self, message: str = "connection closed") -> None:
        super().__init__(message, code="bad_message")


# -- framing ----------------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """Serialise one message dict into a length-prefixed frame."""
    try:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            f"message is not JSON-serialisable: {error}"
        ) from error
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> dict:
    """Parse one frame body back into its message dict."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


def _recv_exact(sock, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and not chunks:
                raise ConnectionClosed()
            raise ProtocolError(
                f"stream truncated: expected {count} more bytes, "
                f"peer closed after {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock, message: dict) -> None:
    """Write one message to a connected socket as a single frame."""
    sock.sendall(encode_frame(message))


def recv_message(sock) -> dict:
    """Read one framed message from a connected socket.

    Raises :class:`ConnectionClosed` on a clean EOF at a frame
    boundary and :class:`~repro.errors.ProtocolError` on anything
    torn or oversized.
    """
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return decode_frame(_recv_exact(sock, length))


# -- message construction ---------------------------------------------------------


def request(rtype: str, **fields) -> dict:
    """A versioned request message of the given type."""
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown request type {rtype!r}; "
            f"known: {', '.join(REQUEST_TYPES)}",
            code="unknown_type",
        )
    return {"v": PROTOCOL_VERSION, "type": rtype, **fields}


def error_reply(code: str, message: str) -> dict:
    """A typed error reply carrying a machine-readable code."""
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    return {
        "v": PROTOCOL_VERSION, "type": "ERROR",
        "code": code, "error": message,
    }


def validate_request(message: dict) -> str:
    """Check version and type of an inbound request; returns the type.

    Raises :class:`~repro.errors.ProtocolError` with the error code a
    daemon should reply with (``version_mismatch``, ``unknown_type``
    or ``bad_message``).
    """
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: daemon speaks "
            f"v{PROTOCOL_VERSION}, request carried {version!r}",
            code="version_mismatch",
        )
    rtype = message.get("type")
    if not isinstance(rtype, str):
        raise ProtocolError("request has no type field")
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown request type {rtype!r}; "
            f"known: {', '.join(REQUEST_TYPES)}",
            code="unknown_type",
        )
    if rtype == "SUBMIT":
        kind = message.get("kind", "qos")
        if kind not in SUBMIT_KINDS:
            raise ProtocolError(
                f"unknown submit kind {kind!r}; "
                f"known: {', '.join(SUBMIT_KINDS)}",
            )
        if not isinstance(message.get("config"), dict):
            raise ProtocolError("SUBMIT needs a config object")
        if "trace" in message and not isinstance(message["trace"], bool):
            raise ProtocolError("SUBMIT trace must be a boolean")
    if rtype in ("RESULT",) and not isinstance(
        message.get("job_id"), str
    ):
        raise ProtocolError(f"{rtype} needs a job_id string")
    if rtype in DIST_TYPES and not isinstance(message.get("worker"), str):
        raise ProtocolError(f"{rtype} needs a worker string")
    if rtype in DIST_TYPES and "trace" in message:
        spans = message["trace"]
        if not isinstance(spans, list) or not all(
            isinstance(item, dict) for item in spans
        ):
            raise ProtocolError(
                f"{rtype} trace must be a list of span objects"
            )
    if rtype in ("HEARTBEAT", "PROGRESS", "COMPLETE"):
        chunk = message.get("chunk")
        if not isinstance(chunk, int) or isinstance(chunk, bool):
            raise ProtocolError(f"{rtype} needs an integer chunk id")
    if rtype == "PROGRESS":
        completed = message.get("completed")
        if (
            not isinstance(completed, int)
            or isinstance(completed, bool)
            or completed < 0
        ):
            raise ProtocolError(
                "PROGRESS needs a non-negative integer completed count"
            )
    return rtype
