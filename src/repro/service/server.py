"""The frame server shared by ``repro serve`` and the sweep coordinator.

:class:`FrameServer` listens on one TCP socket and gives each
connection its own handler thread.  The handler reads
:mod:`~repro.service.protocol` frames until the peer hangs up and
answers each with ``dispatcher.dispatch(message)``: a
:class:`~repro.errors.ProtocolError` from the dispatcher becomes a
typed ERROR reply, and a torn frame gets one before the connection is
dropped (the stream is unparseable past it).

The server owns its acceptor thread: :meth:`FrameServer.start` starts
it and :meth:`FrameServer.stop` wakes it through a socket pair, so a
stop returns at once instead of waiting out a ``serve_forever`` poll.
"""

from __future__ import annotations

import selectors
import socket
import socketserver
import threading

from ..errors import ProtocolError, ServiceError
from . import protocol

__all__ = ["FrameServer"]


class _FrameHandler(socketserver.BaseRequestHandler):
    """Reads frames off one connection until the peer hangs up."""

    def handle(self):  # noqa: D102 - socketserver plumbing
        dispatcher = self.server.dispatcher
        while True:
            try:
                message = protocol.recv_message(self.request)
            except protocol.ConnectionClosed:
                return
            except ProtocolError as error:
                self._reply(protocol.error_reply(error.code, str(error)))
                return
            except OSError:
                return
            try:
                reply = dispatcher.dispatch(message)
            except ProtocolError as error:
                reply = protocol.error_reply(error.code, str(error))
            if not self._reply(reply):
                return

    def _reply(self, message: dict) -> bool:
        try:
            protocol.send_message(self.request, message)
            return True
        except OSError:
            return False


class FrameServer(socketserver.ThreadingTCPServer):
    """Per-connection handler threads answering frames via ``dispatcher``.

    ``dispatcher`` is anything with a ``dispatch(message) -> reply``
    method (a :class:`~repro.service.daemon.ServeDaemon` or a
    :class:`~repro.dist.coordinator.SweepCoordinator`).  Binding errors
    surface from the constructor as :class:`OSError`, and from
    :meth:`listen` as :class:`~repro.errors.ServiceError`.
    """

    allow_reuse_address = False
    daemon_threads = True
    #: Connections may arrive before :meth:`start` (the sweep executor
    #: forks its workers in between), so queue more than the default 5.
    request_queue_size = 64

    def __init__(self, address: tuple, dispatcher) -> None:
        """Bind ``address`` and answer its connections with ``dispatcher``."""
        self.dispatcher = dispatcher
        super().__init__(address, _FrameHandler)
        self._wake_recv, self._wake_send = socket.socketpair()
        self._acceptor: threading.Thread | None = None

    @classmethod
    def listen(
        cls, host: str, port: int, dispatcher, hint: str = ""
    ) -> "FrameServer":
        """Bind ``host:port`` for ``dispatcher``; a bind failure raises
        :class:`~repro.errors.ServiceError`, with ``hint`` appended."""
        try:
            return cls((host, port), dispatcher)
        except OSError as error:
            raise ServiceError(
                f"cannot listen on {host}:{port}: {error.strerror or error}"
                + (f" {hint}" if hint else "")
            ) from error

    @staticmethod
    def port_of(server: "FrameServer | None", requested_port: int) -> int:
        """``server``'s bound port (which resolves ``port=0``), or
        ``requested_port`` while there is no server."""
        if server is None:
            return requested_port
        return server.server_address[1]

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has started the acceptor thread."""
        return self._acceptor is not None

    def start(self, name: str) -> None:
        """Accept connections on a daemon thread called ``name``."""
        self._acceptor = threading.Thread(
            target=self._accept, name=name, daemon=True
        )
        self._acceptor.start()

    def _accept(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_recv, selectors.EVENT_READ)
            while True:
                ready = {key.fileobj for key, _ in selector.select()}
                if self._wake_recv in ready:
                    return
                # What serve_forever runs when the listening socket is
                # readable: accept and hand off to a handler thread.
                self._handle_request_noblock()

    def stop(self) -> None:
        """Stop accepting and close the listening socket, at once."""
        self._wake_send.send(b"\0")
        if self._acceptor is not None:
            self._acceptor.join()
        self.close()

    def close(self) -> None:
        """Close the listening socket and the wake-up pair (no thread
        is stopped: :meth:`stop` does that first)."""
        self.server_close()
        self._wake_recv.close()
        self._wake_send.close()
