"""Seed-deterministic scenario fuzzing with invariant conformance.

The fuzz subsystem composes random-but-seeded arrival-process programs
and experiment configs (:mod:`repro.fuzz.generator`), runs them through
the real engine under five conformance invariants
(:mod:`repro.fuzz.harness`), greedily shrinks failures to minimal
reproducers (:mod:`repro.fuzz.shrink`), and persists them into the
experiment store as ``fuzz-`` regression entries that the tier-1 suite
replays on every run.  ``repro fuzz --seed N --cases K`` is the CLI
entry point; see ``docs/FUZZING.md`` for the workflow.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".generator": ("FuzzCase", "generate_case", "generate_cases"),
        ".harness": (
            "INVARIANTS",
            "CaseReport",
            "FuzzReport",
            "Violation",
            "check_case",
            "replay_stored",
            "report_json",
            "run_fuzz",
        ),
        ".programs": (
            "build_program",
            "program_label",
            "program_size",
            "random_program",
        ),
        ".shrink": ("case_size", "shrink_case"),
    },
)
