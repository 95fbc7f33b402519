"""Performance harness: reproducible timings behind ``repro bench``.

The harness times the paths the ROADMAP cares about — LUT construction
(frontier vs the scalar reference, cold vs persistent-cache warm),
sweep throughput through the experiment engine, per-slice lookup
latency, the slice loop, QoS, the store, the daemon, the distributed
executor and tracing overhead — and writes machine-readable
``BENCH_*.json`` artifacts that CI uploads and gates on.
:data:`SECTIONS` is the one table of sections, headline metrics and
gate thresholds; :mod:`repro.perf.trend` compares a fresh run's
headline metrics against the committed baselines so CI also catches
*relative* drift, not just absolute-floor violations.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".bench": (
            "BENCH_PREFIX",
            "SECTIONS",
            "check_gates",
            "default_bench_settings",
            "render_report",
            "run_bench",
            "write_reports",
        ),
        ".trend": (
            "DEFAULT_TOLERANCE",
            "TrendDelta",
            "compare_reports",
            "render_markdown",
        ),
    },
)
