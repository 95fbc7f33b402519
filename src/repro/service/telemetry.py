"""Scrape-friendly metrics: counters, gauges, histograms, line protocol.

The daemon keeps one :class:`MetricsRegistry` and exposes it two ways:

* a ``METRICS`` request renders the whole registry as **InfluxDB line
  protocol** — the format Telegraf's ``socket_listener``/``exec``
  inputs and InfluxDB itself ingest natively;
* an append-only ``metrics.lp`` file (``repro serve --metrics-file``)
  receives one line per completed job and per QoS service window, the
  shape a Telegraf ``tail`` input scrapes into a live Grafana board.

Line protocol, one line per measurement::

    measurement,tag1=a,tag2=b field1=1i,field2=0.5,field3="text" 1700000000000000000

Rendering is deterministic: measurements sort by (name, tags), fields
sort by name within a line, integers carry the ``i`` suffix, and
escaping follows the InfluxDB rules (commas/spaces/equals in tags and
field keys, quotes/backslashes in string field values) — pinned by
golden-file tests so external dashboards never see a silent schema
change.

Histograms are streaming: they keep total ``count``/``sum``/``min``/
``max`` exactly and nearest-rank p50/p95/p99 over a bounded window of
the most recent :data:`HISTOGRAM_WINDOW` observations, so a daemon
that serves for weeks holds constant memory.
"""

from __future__ import annotations

import threading

from ..errors import ServiceError
from ..qos.slo import PERCENTILES, percentile

__all__ = [
    "HISTOGRAM_WINDOW",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_tag",
    "escape_measurement",
    "format_field_value",
    "format_line",
]

#: Observations a histogram keeps for percentile estimation.
HISTOGRAM_WINDOW = 4096


# -- line-protocol formatting -----------------------------------------------------


def escape_measurement(name: str) -> str:
    """Escape a measurement name (commas and spaces)."""
    return name.replace(",", r"\,").replace(" ", r"\ ")


def escape_tag(value: str) -> str:
    """Escape a tag key, tag value or field key (comma/space/equals)."""
    return (
        str(value)
        .replace(",", r"\,")
        .replace("=", r"\=")
        .replace(" ", r"\ ")
    )


def format_field_value(value) -> str:
    """One field value in line-protocol syntax.

    Booleans render as ``true``/``false``, integers with the ``i``
    suffix, floats via ``repr`` (shortest round-trip form), strings
    quoted with ``"`` and ``\\`` escaped.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return f"{value}i"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise ServiceError(
        f"unsupported field value {value!r} ({type(value).__name__})"
    )


def format_line(measurement: str, tags: dict, fields: dict,
                timestamp_ns: int | None = None) -> str:
    """One complete line-protocol line (tags and fields sorted)."""
    if not fields:
        raise ServiceError(f"measurement {measurement!r} has no fields")
    parts = [escape_measurement(measurement)]
    for key in sorted(tags):
        parts.append(f",{escape_tag(key)}={escape_tag(tags[key])}")
    rendered = ",".join(
        f"{escape_tag(key)}={format_field_value(fields[key])}"
        for key in sorted(fields)
    )
    line = "".join(parts) + " " + rendered
    if timestamp_ns is not None:
        line += f" {int(timestamp_ns)}"
    return line


# -- metric kinds -----------------------------------------------------------------


class Counter:
    """A monotonically increasing integer metric."""

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ServiceError(f"counters only go up, got inc({amount})")
        self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def fields(self, name: str) -> dict:
        """The line-protocol fields this metric contributes."""
        return {name: self._value}


class Gauge:
    """A point-in-time numeric metric."""

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value) -> None:
        """Set the gauge to ``value`` (int, float or bool)."""
        self._value = value

    @property
    def value(self):
        """The last value set."""
        return self._value

    def fields(self, name: str) -> dict:
        """The line-protocol fields this metric contributes."""
        return {name: self._value}


class Histogram:
    """Streaming distribution: exact count/sum/min/max, windowed tails.

    Percentiles (nearest-rank p50/p95/p99) are computed over the most
    recent :data:`HISTOGRAM_WINDOW` observations so memory stays
    bounded however long the daemon serves.
    """

    def __init__(self, window: int = HISTOGRAM_WINDOW) -> None:
        self._window = window
        self._recent: list = []
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        self._count += 1
        self._sum += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        self._recent.append(value)
        if len(self._recent) > self._window:
            del self._recent[: len(self._recent) - self._window]

    @property
    def count(self) -> int:
        """Total observations ever folded in."""
        return self._count

    def fields(self, name: str) -> dict:
        """The line-protocol fields this metric contributes."""
        fields = {
            f"{name}_count": self._count,
            f"{name}_sum": self._sum,
        }
        if self._count:
            fields[f"{name}_min"] = self._min
            fields[f"{name}_max"] = self._max
            ordered = sorted(self._recent)
            for q, label in zip(PERCENTILES, ("p50", "p95", "p99")):
                fields[f"{name}_{label}"] = percentile(ordered, q)
        return fields


# -- the registry -----------------------------------------------------------------


class MetricsRegistry:
    """A named, tagged collection of counters, gauges and histograms.

    Metrics are addressed by ``(measurement, field, tags)``; all
    fields sharing one ``(measurement, tags)`` pair merge into a
    single line on render, which is the idiomatic line-protocol shape
    (one point, many fields).  The registry is thread-safe: handler
    threads increment while a scraper renders.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (measurement, sorted-tags-tuple) -> {field: metric}
        self._groups: dict = {}
        self._tags: dict = {}
        self._collectors: list = []

    def add_collector(self, collect) -> None:
        """Call ``collect()`` before every render, to set gauges lazily.

        A value that changes far more often than it is scraped (a
        per-window QoS gauge) is cheaper to keep in a plain attribute
        and copy into its gauge here than to set on every change.
        """
        self._collectors.append(collect)

    def _snapshot(self) -> list:
        """Run the collectors; then ``(key, tags, group)``, sorted."""
        for collect in self._collectors:
            collect()
        with self._lock:
            return [
                (key, self._tags[key], dict(group))
                for key, group in sorted(self._groups.items())
            ]

    def _metric(self, factory, measurement: str, field: str, tags: dict):
        key = (measurement, tuple(sorted((tags or {}).items())))
        with self._lock:
            group = self._groups.setdefault(key, {})
            if field not in group:
                group[field] = factory()
                self._tags[key] = dict(tags or {})
            metric = group[field]
        if not isinstance(metric, factory):
            raise ServiceError(
                f"metric {measurement}.{field} already registered as "
                f"{type(metric).__name__}, not {factory.__name__}"
            )
        return metric

    def counter(self, measurement: str, field: str,
                tags: dict | None = None) -> Counter:
        """Get or create the named counter."""
        return self._metric(Counter, measurement, field, tags or {})

    def gauge(self, measurement: str, field: str,
              tags: dict | None = None) -> Gauge:
        """Get or create the named gauge."""
        return self._metric(Gauge, measurement, field, tags or {})

    def histogram(self, measurement: str, field: str,
                  tags: dict | None = None) -> Histogram:
        """Get or create the named histogram."""
        return self._metric(Histogram, measurement, field, tags or {})

    def lines(self, timestamp_ns: int | None = None) -> list:
        """Every measurement as one line-protocol line, sorted."""
        lines = []
        for (measurement, _), tags, group in self._snapshot():
            fields: dict = {}
            for field, metric in group.items():
                fields.update(metric.fields(field))
            lines.append(
                format_line(measurement, tags, fields, timestamp_ns)
            )
        return lines

    def render(self, timestamp_ns: int | None = None) -> str:
        """The whole registry as a line-protocol document."""
        return "\n".join(self.lines(timestamp_ns)) + "\n"

    def values(self) -> dict:
        """The registry as a JSON-ready nested dict.

        ``{measurement: {field...: value}}`` with every group's tag
        dict folded into the measurement key as line-protocol tag
        syntax (``measurement,tag=value``), mirroring :meth:`lines` so
        a ``STATUS --json`` body and a ``METRICS`` scrape agree on
        naming.  Histograms expand into their ``_count``/``_sum``/...
        fields exactly as they render.
        """
        values: dict = {}
        for (measurement, _), tags, group in self._snapshot():
            name = measurement + "".join(
                f",{escape_tag(key)}={escape_tag(tags[key])}"
                for key in sorted(tags)
            )
            fields: dict = {}
            for field, metric in group.items():
                fields.update(metric.fields(field))
            values[name] = fields
        return values


class LineFileWriter:
    """Append-only ``metrics.lp`` writer a Telegraf ``tail`` can follow.

    Each :meth:`write` appends complete lines and flushes, so a
    follower never observes a torn line.  Failures degrade silently
    after the first logged warning: metrics export must never take
    down the serving path.
    """

    def __init__(self, path, log=None, on_error=None) -> None:
        """Open ``path`` for appending; ``log`` is a one-line logger,
        ``on_error`` a structured ``(path, error)`` callback that takes
        precedence over ``log`` for the first-failure warning."""
        self.path = path
        self._log = log
        self._on_error = on_error
        self._lock = threading.Lock()
        self._failed = False
        self._handle = None

    def write(self, lines) -> None:
        """Append the given line-protocol lines (a list of strings)."""
        if self._failed or not lines:
            return
        with self._lock:
            try:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write("\n".join(lines) + "\n")
                self._handle.flush()
            except OSError as error:
                self._failed = True
                if self._on_error is not None:
                    self._on_error(self.path, error)
                elif self._log is not None:
                    self._log(
                        f"event=metrics_file_error path={self.path} "
                        f"error={error!r}"
                    )

    def close(self) -> None:
        """Close the underlying file handle, if open."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
