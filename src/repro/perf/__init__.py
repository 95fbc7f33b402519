"""Performance harness: reproducible timings behind ``repro bench``.

The harness times each fast path against its oracle in one process —
LUT construction (frontier vs the scalar reference, cold vs
persistent-cache warm), the slice loop, QoS, the store resume, the
distributed executor and tracing overhead — and writes machine-readable
``BENCH_*.json`` artifacts that CI uploads and gates on.
:data:`SECTIONS` is the one table of sections, headline ratios and
gate thresholds; :mod:`repro.perf.trend` compares a fresh run's
headline ratios against the committed baselines so CI also catches
*relative* drift, not just absolute-floor violations.  Wall time of
whole commands is measured by ``perfbench/``.
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
