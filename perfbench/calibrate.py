"""A fixed calibration process that measures how fast the machine is now.

``perfbench/run.py`` runs this before every timed command and set-up and
scales their times by how long it took, so that load from other tenants
of a shared host, which drifts over seconds to minutes, cancels out.  It
does the same kinds of work as a ``repro`` command (interpreter start,
imports, NumPy array passes, Python dict and loop work, JSON encoding)
and depends on nothing in the repository, so no change to the program
moves it.
"""

import json

import numpy as np


def main() -> None:
    values = np.arange(100_000, dtype=np.float64)
    total = 0.0
    for step in range(40):
        total += float(np.sqrt(values + step).sum())
    buckets: dict = {}
    for index in range(150_000):
        buckets[index % 977] = buckets.get(index % 977, 0) + index
    print(json.dumps({"total": total, "buckets": len(buckets)}))


if __name__ == "__main__":
    main()
