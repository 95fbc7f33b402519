"""Mapping: compile inference workloads onto PIM instruction streams.

The analysis layers price placements in closed form; this package emits
the *actual command streams* a placement implies — LOAD/COMPUTE/SYNC
sequences per module, MOVE sequences for placement transitions — and can
execute them through the real dual-controller fabric.  Integration tests
cross-check the executed timing against the analytic cost model.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".compiler": (
            "CompiledInference",
            "CompiledTransition",
            "InferenceCompiler",
            "ModuleWork",
        ),
    },
)
