"""Work-stealing distributed sweep execution on top of the store.

A sweep grid becomes a set of config **chunks** that keep each
runtime-key group together (:func:`repro.store.sharding.runtime_chunks`),
so each LUT is built by one worker; one
:class:`~repro.dist.coordinator.SweepCoordinator` hands chunks to any
number of worker processes over the v2 wire protocol
(:mod:`repro.service.protocol`: CLAIM/HEARTBEAT/PROGRESS/COMPLETE) and
guards each grant with a filesystem **lease**
(:mod:`repro.dist.leases`).  Workers are thin loops around
``Engine.run_many(..., spill=True)`` writing into one shared
experiment store, so the system needs no consensus: every run is
idempotent and content-addressed, a worker that dies simply stops
renewing its lease, and the next idle worker *steals* the expired
chunk.  The aggregated :class:`~repro.api.results.StoredResultSet` is
byte-identical to a single-process sweep — pinned by a differential
test that SIGKILLs a worker mid-sweep.

Entry points: ``repro sweep --workers N --store DIR`` spawns a local
coordinator plus N workers (:func:`~repro.dist.executor.
distributed_sweep`); ``repro sweep-worker --connect HOST:PORT``
attaches another process — on any machine sharing the store — to a
running coordinator.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".coordinator": ("SweepCoordinator",),
        ".executor": ("distributed_sweep",),
        ".leases": ("Lease", "LeaseManager"),
        ".worker": ("CoordinatorClient", "run_worker"),
    },
)
