"""Observability: span tracing, structured events, phase profiling.

Three dependency-free modules built for the serving stack:

* :mod:`repro.obs.tracing` — a span tracer with deterministic ids and
  an injectable clock, exported as Chrome trace-event JSON (loadable
  in Perfetto) or a JSONL span dump.  Off by default; the disabled
  path is a reused null context manager, so instrumented code pays
  near-zero overhead when nobody is tracing.
* :mod:`repro.obs.events` — a structured event log with a typed
  record registry, replacing the ad-hoc ``event=`` prints in the
  daemon and the sweep coordinator while keeping their grep-friendly
  human rendering.
* :mod:`repro.obs.profile` — folds a recorded trace into per-phase
  wall-time / count / self-time aggregates for ``repro profile``.

Spans observe, never perturb: every differential suite (scalar DP /
runtime / QoS, daemon-vs-in-process, resumed-vs-uninterrupted) stays
bit-identical with tracing enabled.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".events": ("EventLog", "emit", "install", "uninstall"),
        ".tracing": (
            "Span",
            "Trace",
            "Tracer",
            "activate",
            "active_tracer",
            "deactivate",
            "span",
        ),
    },
)
