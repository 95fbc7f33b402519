"""Run one ``repro`` CLI command and record where its process time went.

    python3 perfbench/launch.py TIMES.json ARG...

Behaves like ``python3 -m repro ARG...`` (same exit code, same output)
and also writes ``TIMES.json`` with three CLOCK_MONOTONIC timestamps in
nanoseconds: ``entry_ns`` (first statement of this script, i.e. the
interpreter is up), ``imported_ns`` (``repro.cli`` imported) and
``done_ns`` (``main`` returned).  ``perfbench/run.py`` records the spawn
and reap times around the process, which together split its wall time
into interpreter start, imports, the command itself and exit.
"""

import time

ENTRY_NS = time.monotonic_ns()

import sys  # noqa: E402 - the entry timestamp comes first


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    imported_ns = time.monotonic_ns()
    try:
        return cli.main(argv)
    finally:
        done_ns = time.monotonic_ns()
        import json

        with open(out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "entry_ns": ENTRY_NS,
                    "imported_ns": imported_ns,
                    "done_ns": done_ns,
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
