"""The resident serving subsystem: daemon, wire protocol, telemetry.

``repro serve`` keeps one warm :class:`~repro.api.engine.Engine` (and
its LUT caches and experiment store) resident behind a localhost TCP
socket; ``repro submit``/``status``/``shutdown`` talk to it through
:class:`ServeClient`.  See :mod:`repro.service.protocol` for the wire
format, :mod:`repro.service.telemetry` for the line-protocol metrics
exporter, and ``docs/SERVING.md`` for the operator guide.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".client": ("RemoteError", "ServeClient"),
        ".daemon": ("Job", "ServeDaemon"),
        ".protocol": ("DEFAULT_HOST", "DEFAULT_PORT", "PROTOCOL_VERSION"),
        ".telemetry": ("LineFileWriter", "MetricsRegistry"),
    },
)
