"""Request-level QoS: queueing, SLO accounting and autoscaling.

The slice runtime and the fleet answer "how much energy does a load
pattern cost?"; this package answers the serving questions — what tail
latency do individual requests see, which SLOs hold, and how big must
the fleet be?  It layers a seed-deterministic, request-level
discrete-event simulator (:class:`QoSSimulator`) on the existing stack:
requests are sampled from any scenario (:mod:`repro.qos.requests`),
queued per device under FIFO / priority / EDF disciplines with
configurable batching (:mod:`repro.qos.queueing`), priced by the
allocation LUT's placement decisions, scored by streaming percentile and
SLO series (:mod:`repro.qos.slo`), and capacity-managed by pluggable
autoscalers (:mod:`repro.qos.autoscale`).

With zero queueing the simulator degenerates *exactly* to
:class:`repro.serving.fleet.Fleet` — same per-slice records, bit for bit
— so every QoS number stays anchored to the paper's energy model.

Two engines share the simulator's semantics: the *vectorized* batch
engine (columnar :class:`RequestBatch` streams, one lexsort per queue,
memoized placement prices, array SLO folds) is the production path; the
original per-event discrete-event loop is the scalar reference, selected
with ``REPRO_SCALAR_QOS=1`` or :func:`scalar_qos` — mirroring
``REPRO_SCALAR_DP`` / ``REPRO_SCALAR_RUNTIME``.  Both produce
bit-identical results; the differential suite pins it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".autoscale": (
            "Autoscaler",
            "BUILTIN_AUTOSCALERS",
            "Fixed",
            "QueueDepthTarget",
            "ScaleObservation",
            "Threshold",
            "make_autoscaler",
        ),
        ".queueing": (
            "BUILTIN_DISCIPLINES",
            "EarliestDeadline",
            "Fifo",
            "Priority",
            "QoSSimulator",
            "QueueDiscipline",
            "make_discipline",
            "scalar_qos",
            "use_scalar_qos",
        ),
        ".requests": (
            "DEFAULT_CLASSES",
            "INTERACTIVE_MIX",
            "Request",
            "RequestBatch",
            "RequestClass",
            "sample_request_batch",
            "sample_requests",
        ),
        ".slo": (
            "PERCENTILES",
            "QoSResult",
            "QoSSliceStats",
            "SloAccountant",
            "percentile",
        ),
    },
)
