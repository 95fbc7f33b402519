"""Persistent experiment store and sharded, resumable sweeps.

Two pieces:

* :mod:`repro.store.store` — :class:`Store`, an on-disk store of
  completed experiments content-addressed by config hash, with atomic
  writes, version orphaning and corruption quarantine;
* :mod:`repro.store.sharding` — deterministic config-hash partitioning
  of sweep grids, so N coordinator-free processes fill one store and a
  resumed pass stitches the full result set with zero recomputation,
  plus the runtime-key chunks a distributed sweep hands its workers.

Quickstart::

    from repro.api import Engine, ExperimentConfig
    from repro.store import Store

    engine = Engine(store=Store("results/"))
    grid = ExperimentConfig(slices=50).sweep(
        arch=["Baseline-PIM", "HH-PIM"],
        scenario=["case1", "case3"],
    )
    engine.run_many(grid)     # computes + persists
    engine.run_many(grid)     # pure store hits: zero recomputation

From the shell the same store backs ``repro sweep --store DIR
[--shard I/N] [--resume]`` and ``repro store {info,ls,clear}``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".sharding": (
            "parse_shard",
            "partition",
            "runtime_chunks",
            "select_shard",
            "shard_index",
        ),
        ".store": (
            "KINDS",
            "STORE_VERSION",
            "Store",
            "StoreStats",
            "default_store_dir",
            "record_kind",
            "temporary_store_dir",
        ),
    },
)
