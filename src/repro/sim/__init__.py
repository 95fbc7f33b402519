"""Cycle-level simulation: event queue, execution engine, traces.

The analytic runtime (:mod:`repro.core.runtime`) prices slices in closed
form; this package provides the *mechanistic* counterpart — a
deterministic event-driven engine that executes placements on real
:class:`~repro.pim.module.PIMModule` objects, charging bank and PE
statistics access-by-access.  Integration tests cross-validate the two:
the engine's measured dynamic energy must match the analytic model.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".events": ("Event", "EventQueue"),
        ".engine": ("CycleEngine", "TaskExecution"),
        ".trace": ("TraceEvent", "TraceRecorder"),
    },
)
