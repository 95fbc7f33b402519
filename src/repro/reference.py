"""Switches that select a scalar reference path over its fast path.

Every vectorized hot path keeps its paper-faithful scalar reference as
an oracle (the knapsack DP, the slice loop, the QoS event loop).  Each
reference is selected process-wide by a ``REPRO_SCALAR_<NAME>``
environment variable, or for one block by a context manager that
overrides the environment.  See
`docs/ARCHITECTURE.md#the-differential-path-convention`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["ReferenceSwitch", "SCALAR_DP", "SCALAR_QOS", "SCALAR_RUNTIME"]

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class ReferenceSwitch:
    """One environment switch with a programmatic override."""

    def __init__(self, env: str) -> None:
        #: The environment variable that selects the reference path.
        self.env = env
        self._forced: bool | None = None

    def enabled(self) -> bool:
        """Whether the scalar reference path is selected."""
        if self._forced is not None:
            return self._forced
        return os.environ.get(self.env, "").strip().lower() in _TRUTHY

    @contextmanager
    def forced(self, enabled: bool = True):
        """Force the scalar (or fast) path for the enclosed block."""
        previous = self._forced
        self._forced = enabled
        try:
            yield
        finally:
            self._forced = previous


#: The knapsack DP and allocation-state scan (:mod:`repro.core.knapsack`).
SCALAR_DP = ReferenceSwitch("REPRO_SCALAR_DP")
#: The time-slice loop (:mod:`repro.core.runtime`).
SCALAR_RUNTIME = ReferenceSwitch("REPRO_SCALAR_RUNTIME")
#: The per-event QoS engine (:mod:`repro.qos.queueing`).
SCALAR_QOS = ReferenceSwitch("REPRO_SCALAR_QOS")
