"""The frame server shared by ``repro serve`` and the sweep coordinator.

:class:`FrameServer` listens on one TCP socket and gives each
connection its own handler thread.  The handler reads
:mod:`~repro.service.protocol` frames until the peer hangs up and
answers each with ``dispatcher.dispatch(message)``: a
:class:`~repro.errors.ProtocolError` from the dispatcher becomes a
typed ERROR reply, and a torn frame gets one before the connection is
dropped (the stream is unparseable past it).
"""

from __future__ import annotations

import socketserver

from ..errors import ProtocolError
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
    surface from the constructor as :class:`OSError`.
    """

    allow_reuse_address = False
    daemon_threads = True

    def __init__(self, address: tuple, dispatcher) -> None:
        """Bind ``address`` and answer its connections with ``dispatcher``."""
        self.dispatcher = dispatcher
        super().__init__(address, _FrameHandler)
