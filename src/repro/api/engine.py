"""The experiment engine: one front door to every layer of the library.

:class:`Engine` turns an :class:`~repro.api.config.ExperimentConfig`
into a :class:`~repro.core.runtime.RunResult` — resolving registry keys,
sizing the time slice with the paper's rule, and (most importantly)
**memoizing the allocation LUTs**: every run sharing the same
(architecture, model, policy, time slice, resolution, granularity)
reuses one :class:`~repro.core.runtime.TimeSliceRuntime`, so a Fig. 5
style sweep computes each knapsack table exactly once instead of once
per scenario.

``run_many`` executes batches.  Serially it streams through the shared
runtime cache; with ``max_workers > 1`` it fans *runtime groups* out
over a ``concurrent.futures`` process pool — one worker task per
distinct runtime, so the exactly-once LUT property survives
parallelisation — and reassembles results in input order, making the
batch deterministic regardless of completion order.

Beneath the in-memory memoization sits the *persistent* LUT cache
(:mod:`repro.core.lutcache`): every runtime materialisation — in this
process or inside a pool worker — first consults the on-disk store, so
repeated CLI invocations and sweeps across processes rebuild zero DP
tables once the cache is warm.  ``EngineStats.dp_builds`` counts the DP
tables actually computed (aggregated across workers), which is how the
zero-rebuild property is asserted.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass

from ..core import lutcache
from ..core.knapsack import dp_build_count
from ..obs.tracing import span as _span
from ..core.placement import PlacementPolicy
from ..core.runtime import TimeSliceRuntime, default_time_slice_ns
from ..errors import ConfigurationError, RegistryError
from ..qos.queueing import QoSSimulator
from ..qos.slo import QoSResult
from ..serving.fleet import Fleet, FleetResult
from ..workloads.scenarios import Scenario
from .config import ExperimentConfig
from .registry import (
    ARCHITECTURES,
    AUTOSCALERS,
    DISPATCH,
    MODELS,
    POLICIES,
    QOS,
    SCENARIOS,
)
from .results import FleetRecord, ResultSet, RunRecord, StoredResultSet


@dataclass
class EngineStats:
    """Observable cache behaviour (the tests assert on these)."""

    #: Times a TimeSliceRuntime was materialised (built or disk-loaded).
    lut_builds: int = 0
    #: Times a run was served by an already-materialised runtime.
    lut_hits: int = 0
    #: Total scenario runs executed.
    runs: int = 0
    #: Distinct (model, resolution) time-slice sizings computed.
    t_slice_builds: int = 0
    #: DP tables actually computed (across this engine's pool workers
    #: too); zero on a warm persistent cache.
    dp_builds: int = 0
    #: Runtime/t-slice materialisations served by the persistent cache.
    lut_disk_hits: int = 0
    #: Entries this engine persisted to the on-disk cache.
    lut_disk_writes: int = 0
    #: Whole runs served from the experiment store (no recomputation).
    store_hits: int = 0
    #: Runs the store was consulted for but had to be computed.
    store_misses: int = 0


@dataclass(frozen=True)
class _ResolvedRuntime:
    """An ExperimentConfig with every registry key resolved to its spec."""

    spec: object
    model: object
    policy: PlacementPolicy
    t_slice_ns: float
    block_count: int
    time_steps: int
    granule_bytes: int
    #: Whether the persistent on-disk cache participates (never part of
    #: the memoization key: results are identical either way).
    use_cache: bool = True

    @property
    def key(self) -> tuple:
        """The memoization key: all runtime-construction parameters."""
        return (
            self.spec, self.model, self.policy, self.t_slice_ns,
            self.block_count, self.time_steps, self.granule_bytes,
        )

    def build(self) -> TimeSliceRuntime:
        return TimeSliceRuntime(
            self.spec,
            self.model,
            t_slice_ns=self.t_slice_ns,
            policy=self.policy,
            block_count=self.block_count,
            time_steps=self.time_steps,
            granule_bytes=self.granule_bytes,
        )


def _materialize_runtime(resolved: _ResolvedRuntime) -> tuple:
    """Obtain a runtime through the persistent cache when permitted.

    Returns ``(runtime, source, dp_delta)`` where ``source`` is
    ``"disk"``/``"stored"``/``"built"`` (see
    :func:`repro.core.lutcache.fetch_or_build`) and ``dp_delta`` is how
    many DP tables the materialisation actually computed — zero on a
    disk hit.
    """
    before = dp_build_count()
    with _span("engine.materialize_runtime") as trace_span:
        if resolved.use_cache and lutcache.enabled():
            runtime, source = lutcache.fetch_or_build(
                ("runtime",) + resolved.key, resolved.build
            )
        else:
            runtime, source = resolved.build(), "built"
        dp_delta = dp_build_count() - before
        trace_span.annotate(source=source, dp_builds=dp_delta)
    return runtime, source, dp_delta


def _coerce_store(store):
    """Accept a Store, a directory path, or None (imported lazily:
    :mod:`repro.store` depends on :mod:`repro.api`, not vice versa)."""
    if store is None:
        return None
    from ..store.store import Store

    if isinstance(store, Store):
        return store
    return Store(store)


def _run_group(resolved: _ResolvedRuntime, jobs: list) -> tuple:
    """Worker task: materialise one runtime, run all its scenarios.

    ``jobs`` is ``[(position, scenario), ...]``; the positions travel
    with the results so the parent can reassemble input order.  Shipping
    resolved specs (not registry keys) keeps worker processes independent
    of any registrations made after the interpreter forked.  The runtime
    ships back with the results — plus its cache provenance and DP-build
    count, which only this worker process can observe — so the parent
    engine can adopt it and fold the stats in.
    """
    runtime, source, dp_delta = _materialize_runtime(resolved)
    results = [(position, runtime.run(scn)) for position, scn in jobs]
    return results, runtime, source, dp_delta


class Engine:
    """Executes experiment configs with cross-run LUT memoization.

    One engine instance is one in-memory cache domain: keep an engine
    alive across sweeps to amortise LUT construction, or create a fresh
    one for isolated measurements.  The *persistent* disk cache spans
    engines and processes; ``use_disk_cache=False`` opts this engine out
    of it (configs can also opt out individually via ``lut_cache``).
    ``max_workers`` sets the default parallelism of :meth:`run_many`
    (``None``/``1`` = in-process serial execution).

    Above both caches sits the optional *experiment store*
    (:mod:`repro.store`): attach one with ``store=`` and every completed
    :meth:`run_many`/:meth:`sweep` record (and :meth:`run_qos` result)
    persists content-addressed by config; with ``resume=True`` (the
    default) already-stored configs are served back without any
    recomputation — the LUT caches make *runs* cheap, the store makes
    *rerunning* free.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        use_disk_cache: bool = True,
        store=None,
        resume: bool = True,
    ) -> None:
        """See the class docstring; ``store`` attaches an experiment
        store (a :class:`repro.store.Store` or a directory path) that
        :meth:`run_many`/:meth:`sweep`/:meth:`run_qos` write completed
        runs into — and, when ``resume`` is true, serve already-stored
        configs from without recomputation."""
        self.max_workers = max_workers
        self.use_disk_cache = use_disk_cache
        self.store = _coerce_store(store)
        self.resume = resume
        self.stats = EngineStats()
        self._runtimes: dict = {}
        self._t_slices: dict = {}

    # -- resolution -------------------------------------------------------------

    def resolve(self, config: ExperimentConfig) -> _ResolvedRuntime:
        """Resolve registry keys and size the time slice for a config."""
        spec = ARCHITECTURES.get(config.arch)
        model = MODELS.get(config.model)
        if config.policy is None:
            policy = PlacementPolicy.default_for(spec)
        else:
            policy = POLICIES.get(config.policy)
        t_slice_ns = config.t_slice_ns
        if t_slice_ns is None:
            t_slice_ns = self._default_t_slice(config, model)
        return _ResolvedRuntime(
            spec=spec,
            model=model,
            policy=policy,
            t_slice_ns=t_slice_ns,
            block_count=config.block_count,
            time_steps=config.time_steps,
            granule_bytes=config.granule_bytes,
            use_cache=config.lut_cache and self.use_disk_cache,
        )

    def _default_t_slice(self, config: ExperimentConfig, model) -> float:
        key = (
            model, config.peak_inferences, config.block_count,
            config.time_steps,
        )
        if key not in self._t_slices:
            # The paper's sizing rule bootstraps a throwaway LUT, so it
            # goes through the persistent cache too: a warm-cache sweep
            # must trigger zero DP builds end to end.
            def compute() -> float:
                return default_time_slice_ns(
                    model,
                    peak_inferences=config.peak_inferences,
                    block_count=config.block_count,
                    time_steps=config.time_steps,
                )

            before = dp_build_count()
            if config.lut_cache and self.use_disk_cache and lutcache.enabled():
                value, source = lutcache.fetch_or_build(
                    ("t_slice",) + key, compute
                )
                if source == "disk":
                    self.stats.lut_disk_hits += 1
                elif source == "stored":
                    self.stats.lut_disk_writes += 1
            else:
                value = compute()
            self.stats.dp_builds += dp_build_count() - before
            self._t_slices[key] = value
            self.stats.t_slice_builds += 1
        return self._t_slices[key]

    def scenario(self, config: ExperimentConfig) -> Scenario:
        """Materialise the config's scenario from the registry.

        Registry entries are either pre-built :class:`Scenario` instances
        (returned as-is) or factories.  Factories are always called with
        the config's four materialisation knobs (``slices``, ``peak``,
        ``low``, ``seed``) — the config wins over any defaults the
        factory declares, so a config fully describes its workload.
        """
        entry = SCENARIOS.get(config.scenario)
        if isinstance(entry, Scenario):
            return entry
        knobs = dict(
            slices=config.slices, peak=config.peak, low=config.low,
            seed=config.seed,
        )
        try:
            inspect.signature(entry).bind(**knobs)
        except TypeError as error:
            raise RegistryError(
                f"scenario factory {config.scenario!r} must accept the "
                f"keyword arguments slices, peak, low and seed: {error}"
            ) from error
        return entry(**knobs)

    def runtime(self, config: ExperimentConfig) -> TimeSliceRuntime:
        """The memoized runtime (and LUT) for a config's runtime key."""
        runtime, _ = self._runtime_cached(self.resolve(config))
        return runtime

    def _runtime_cached(self, resolved: _ResolvedRuntime):
        """Returns ``(runtime, was_cached)``, materialising on first use."""
        key = resolved.key
        if key in self._runtimes:
            self.stats.lut_hits += 1
            return self._runtimes[key], True
        runtime, source, dp_delta = _materialize_runtime(resolved)
        self._runtimes[key] = runtime
        self.stats.lut_builds += 1
        self.stats.dp_builds += dp_delta
        if source == "disk":
            self.stats.lut_disk_hits += 1
        elif source == "stored":
            self.stats.lut_disk_writes += 1
        return runtime, False

    # -- execution --------------------------------------------------------------

    def run(self, config: ExperimentConfig,
            scenario: Scenario | None = None):
        """Execute one experiment; ``scenario`` overrides the config's.

        Identical inputs produce bit-for-bit identical results to a
        hand-constructed :class:`TimeSliceRuntime` — the engine adds
        caching, never approximation.  Returns a :class:`RunResult` for
        a single device (``config.fleet == 1``) and a
        :class:`~repro.serving.fleet.FleetResult` for a fleet.
        """
        if config.fleet > 1:
            return self.run_fleet(config, scenario=scenario)
        return self.run_record(config, scenario=scenario).result

    def run_record(self, config: ExperimentConfig,
                   scenario: Scenario | None = None) -> RunRecord:
        """Like :meth:`run` but keeps the config and cache provenance."""
        if config.fleet > 1:
            raise ConfigurationError(
                f"config asks for a {config.fleet}-device fleet; use "
                f"Engine.run_fleet / run_fleet_record (or run_many, which "
                f"batches fleet configs as FleetRecord entries)"
            )
        with _span("engine.run", label=config.label) as trace_span:
            runtime, cached = self._runtime_cached(self.resolve(config))
            workload = (
                scenario if scenario is not None else self.scenario(config)
            )
            result = runtime.run(workload)
            self.stats.runs += 1
            trace_span.annotate(lut_cached=cached)
        return RunRecord(config=config, result=result, lut_cached=cached)

    def run_fleet(self, config: ExperimentConfig,
                  scenario: Scenario | None = None) -> FleetResult:
        """Serve the config's scenario on a ``config.fleet``-device fleet.

        All devices share the config's (architecture, model, resolution)
        — and therefore one memoized runtime and one LUT; the dispatch
        policy comes from the :data:`~repro.api.registry.DISPATCH`
        registry.  Heterogeneous fleets are built directly with
        :class:`repro.serving.fleet.Fleet`.
        """
        return self.run_fleet_record(config, scenario=scenario).result

    def run_fleet_record(self, config: ExperimentConfig,
                         scenario: Scenario | None = None) -> FleetRecord:
        """Like :meth:`run_fleet` but keeps the config and provenance."""
        with _span(
            "engine.fleet", label=config.label, devices=config.fleet
        ) as trace_span:
            runtime, cached = self._runtime_cached(self.resolve(config))
            workload = (
                scenario if scenario is not None else self.scenario(config)
            )
            fleet = Fleet(
                [runtime] * config.fleet,
                dispatch=DISPATCH.get(config.dispatch),
            )
            result = fleet.run(workload)
            self.stats.runs += 1
            trace_span.annotate(lut_cached=cached)
        return FleetRecord(config=config, result=result, lut_cached=cached)

    def run_qos(self, config: ExperimentConfig,
                scenario: Scenario | None = None,
                requests=None, store=None,
                resume: bool | None = None,
                on_window=None) -> QoSResult:
        """Simulate the config's scenario at request level (see
        :mod:`repro.qos`).

        The fleet starts at ``config.fleet`` devices sharing the config's
        memoized runtime; ``config.qos`` names the queue discipline,
        ``config.autoscaler`` the capacity policy (bounded by
        ``config.max_fleet``), ``config.slo`` the latency target in time
        slices and ``config.batch`` the per-device batch size.  Requests
        are sampled from the scenario under ``config.seed`` unless an
        explicit ``requests`` stream is given, so identical configs
        reproduce identical percentile/SLO series bit for bit.

        With an experiment store attached, the result persists under the
        config's ``qos`` key and a resumed call returns it without
        re-simulating — but only when the config fully describes the run
        (no ``scenario``/``requests`` override).

        ``on_window`` is a streaming observer called with each service
        window's :class:`~repro.qos.slo.QoSSliceStats` as the simulation
        produces it (the serving daemon feeds its metrics exporter this
        way).  Observation never alters the result, and a store-served
        (resumed) result skips the callback entirely — the windows were
        produced by an earlier run.
        """
        store = self.store if store is None else _coerce_store(store)
        resume = self.resume if resume is None else resume
        addressable = scenario is None and requests is None
        with _span("engine.qos", label=config.label) as trace_span:
            if store is not None and addressable and resume:
                stored = store.get_qos(config)
                if stored is not None:
                    self.stats.store_hits += 1
                    trace_span.annotate(source="store")
                    return stored
                self.stats.store_misses += 1
            runtime, _ = self._runtime_cached(self.resolve(config))
            workload = (
                scenario if scenario is not None else self.scenario(config)
            )
            simulator = QoSSimulator(
                runtime,
                devices=config.fleet,
                dispatch=DISPATCH.get(config.dispatch),
                discipline=QOS.get(config.qos),
                autoscaler=AUTOSCALERS.get(config.autoscaler),
                # None defers to the simulator's default (the initial size)
                max_devices=config.max_fleet,
                batch=config.batch,
                slo=config.slo,
                on_window=on_window,
            )
            result = simulator.run(
                workload, requests=requests, seed=config.seed
            )
            self.stats.runs += 1
            trace_span.annotate(source="computed")
            if store is not None and addressable:
                store.put_qos(config, result, engine_stats=self.stats)
        return result

    def run_job(self, config: ExperimentConfig, kind: str | None = None,
                on_window=None) -> tuple:
        """Execute one config as a serving job; returns ``(kind, outcome)``.

        The single entry point the serving daemon dispatches SUBMIT jobs
        through.  ``kind`` picks the execution path — ``"run"``
        (:meth:`run_record`), ``"fleet"`` (:meth:`run_fleet_record`) or
        ``"qos"`` (:meth:`run_qos`); ``None`` infers ``"fleet"`` for
        multi-device configs and ``"run"`` otherwise.  The outcome is the
        corresponding record/result object, produced by exactly the same
        code path an in-process caller would use — daemon-served results
        are bit-identical to local ones by construction.  ``on_window``
        streams QoS windows (ignored for the other kinds).
        """
        if kind is None:
            kind = "fleet" if config.fleet > 1 else "run"
        if kind == "run":
            return kind, self.run_record(config)
        if kind == "fleet":
            return kind, self.run_fleet_record(config)
        if kind == "qos":
            return kind, self.run_qos(config, on_window=on_window)
        raise ConfigurationError(
            f"unknown job kind {kind!r}; known: run, fleet, qos"
        )

    #: Configs computed per chunk in spill mode — bounds how many
    #: records a spilled sweep holds in memory at once while still
    #: giving the process pool a full fan-out per chunk.
    SPILL_CHUNK = 64

    def run_many(self, configs, max_workers: int | None = None,
                 store=None, resume: bool | None = None,
                 spill: bool = False) -> ResultSet:
        """Execute a batch of configs; results follow the input order.

        Fleet configs (``fleet > 1``) run serially through
        :meth:`run_fleet_record` — their devices share one memoized
        runtime, so there is no LUT work to fan out — and land in the
        batch as :class:`FleetRecord` entries.  With ``max_workers > 1``
        the single-device remainder is partitioned by runtime key and
        each partition runs as one process-pool task, preserving the
        exactly-once LUT construction per (arch, model, resolution)
        group.  Groups whose runtime this engine already cached run
        in-process from the cache.

        With an experiment store attached (``store=`` here or on the
        engine), every computed record is persisted; when ``resume`` is
        true (the engine default) already-stored configs are *skipped*
        and served from the store — ``stats.store_hits`` counts them —
        so an interrupted or sharded sweep completes with zero
        recomputation and a batch bit-identical to an uninterrupted run.

        With ``spill=True`` (requires a store) computed records are
        written to the store in bounded chunks and *dropped* instead of
        accumulated, and the returned :class:`StoredResultSet` streams
        them back on demand — peak memory stays bounded however many
        configs the batch holds, and exports are byte-identical to the
        in-memory path's.
        """
        configs = tuple(configs)
        store = self.store if store is None else _coerce_store(store)
        resume = self.resume if resume is None else resume
        with _span("engine.run_many", configs=len(configs), spill=spill):
            return self._run_many(configs, max_workers, store, resume, spill)

    def _run_many(self, configs: tuple, max_workers: int | None,
                  store, resume: bool, spill: bool) -> ResultSet:
        """The :meth:`run_many` body (split out for the tracing span)."""
        if spill:
            if store is None:
                raise ConfigurationError(
                    "run_many(spill=True) needs an experiment store; "
                    "attach one with store= or Engine(store=...)"
                )
            return self._run_many_spill(configs, max_workers, store, resume)
        if store is None:
            return self._execute_many(configs, max_workers)
        records: list = [None] * len(configs)
        pending: list = []
        for position, config in enumerate(configs):
            stored = store.get(config) if resume else None
            if stored is None:
                pending.append(position)
                if resume:
                    self.stats.store_misses += 1
            else:
                records[position] = stored
                self.stats.store_hits += 1
        if pending:
            computed = self._execute_many(
                tuple(configs[i] for i in pending), max_workers
            )
            for position, record in zip(pending, computed):
                store.put(record, engine_stats=self.stats)
                records[position] = record
        return ResultSet(records)

    def _run_many_spill(self, configs: tuple, max_workers: int | None,
                        store, resume: bool) -> "StoredResultSet":
        """The bounded-memory batch executor behind ``spill=True``.

        Skips already-stored configs (under ``resume``) without loading
        their records, computes the rest :attr:`SPILL_CHUNK` configs at
        a time, persists each chunk and drops it.  A failed store write
        is an error here — unlike the in-memory path there is no record
        left to fall back on.
        """
        pending: list = []
        for config in configs:
            if resume and config in store:
                self.stats.store_hits += 1
                continue
            pending.append(config)
            if resume:
                self.stats.store_misses += 1
        for start in range(0, len(pending), self.SPILL_CHUNK):
            chunk = tuple(pending[start : start + self.SPILL_CHUNK])
            with _span("engine.spill_chunk", start=start, configs=len(chunk)):
                for record in self._execute_many(chunk, max_workers):
                    if not store.put(record, engine_stats=self.stats):
                        raise ConfigurationError(
                            f"spill sweep could not persist config "
                            f"{record.config.fingerprint()} to the store at "
                            f"{store.root}; spilled batches need a writable "
                            f"store"
                        )
        return StoredResultSet(store, configs)

    def sweep(self, base: ExperimentConfig | None = None, *,
              shard=None, max_workers: int | None = None,
              store=None, resume: bool | None = None,
              spill: bool = False, dist: int | None = None,
              **axes) -> ResultSet:
        """Expand a config grid and run it (optionally one shard of it).

        ``axes`` are :meth:`ExperimentConfig.sweep` keyword grids fanned
        out from ``base`` (default: a default config).  ``shard`` —
        an ``"I/N"`` string or ``(index, count)`` pair — restricts the
        batch to the configs :func:`repro.store.sharding.shard_index`
        deterministically assigns to shard I of N, so N processes
        expanding the same grid split it exactly.  ``store``/``resume``/
        ``spill`` behave as in :meth:`run_many`; together they make the
        sharded grid resumable, and ``spill=True`` keeps a grid of
        thousands of configs bounded-memory::

            engine.sweep(shard="0/2", store="results/", arch=[...])
            engine.sweep(shard="1/2", store="results/", arch=[...])
            full = engine.sweep(store="results/", arch=[...])  # all hits

        ``dist=N`` executes the grid through the work-stealing
        executor instead (:func:`repro.dist.executor.distributed_sweep`
        — a coordinator plus N worker processes writing into the
        store, which is required); the returned
        :class:`StoredResultSet` exports byte-identically to the
        in-process paths.
        """
        base = ExperimentConfig() if base is None else base
        configs = base.sweep(**axes)
        if shard is not None:
            from ..store.sharding import select_shard

            configs = select_shard(configs, shard)
        with _span("engine.sweep", configs=len(configs)):
            return self._sweep(
                configs, max_workers, store, resume, spill, dist
            )

    def _sweep(self, configs, max_workers, store, resume, spill,
               dist) -> ResultSet:
        """The :meth:`sweep` execution body (split out for tracing)."""
        if dist is not None:
            target = self.store if store is None else _coerce_store(store)
            if target is None:
                raise ConfigurationError(
                    "sweep(dist=N) needs an experiment store; attach one "
                    "with store= or Engine(store=...)"
                )
            from ..dist.executor import distributed_sweep

            return distributed_sweep(configs, target, workers=dist)
        return self.run_many(
            configs, max_workers=max_workers, store=store, resume=resume,
            spill=spill,
        )

    def _execute_many(self, configs: tuple,
                      max_workers: int | None = None) -> ResultSet:
        """The store-blind batch executor behind :meth:`run_many`."""
        workers = max_workers if max_workers is not None else self.max_workers
        if not configs:
            return ResultSet(())
        if workers is None or workers <= 1 or len(configs) == 1:
            return ResultSet(
                self.run_fleet_record(c) if c.fleet > 1 else self.run_record(c)
                for c in configs
            )
        single = [(i, c) for i, c in enumerate(configs) if c.fleet == 1]
        records: list = [None] * len(configs)
        if single:
            pooled = self._run_pooled(tuple(c for _, c in single), workers)
            for (position, _), record in zip(single, pooled):
                records[position] = record
        for position, config in enumerate(configs):
            if config.fleet > 1:
                records[position] = self.run_fleet_record(config)
        return ResultSet(records)

    def _run_pooled(self, configs: tuple, workers: int) -> ResultSet:
        groups: dict = {}  # runtime key -> (resolved, [(position, scenario)])
        cached_jobs: list = []  # [(position, config, scenario)]
        for position, config in enumerate(configs):
            resolved = self.resolve(config)
            if resolved.key in self._runtimes:
                cached_jobs.append((position, config, self.scenario(config)))
            else:
                group = groups.setdefault(resolved.key, (resolved, []))
                group[1].append((position, self.scenario(config)))

        results: list = [None] * len(configs)
        cached_flags: list = [False] * len(configs)

        def drain_cached() -> None:
            for position, config, workload in cached_jobs:
                record = self.run_record(config, scenario=workload)
                results[position] = record.result
                cached_flags[position] = True

        if not groups:
            drain_cached()
        else:
            # Imported here: it loads multiprocessing, socket and logging,
            # which no serial run needs.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    key: pool.submit(_run_group, resolved, jobs)
                    for key, (resolved, jobs) in groups.items()
                }
                # Drain the cache-hit jobs in the parent while the pool
                # chews on the uncached groups, overlapping the two.
                drain_cached()
                for key, future in futures.items():
                    group_results, runtime, source, dp_delta = future.result()
                    # Adopt the worker's runtime so later batches (pooled
                    # or serial) reuse its LUT instead of rebuilding it,
                    # and fold in the cache behaviour only the worker
                    # process could observe.
                    self._runtimes[key] = runtime
                    self.stats.dp_builds += dp_delta
                    if source == "disk":
                        self.stats.lut_disk_hits += 1
                    elif source == "stored":
                        self.stats.lut_disk_writes += 1
                    for index, (position, result) in enumerate(group_results):
                        results[position] = result
                        # Mirror the serial path's provenance: the group's
                        # first run built the LUT, the rest reused it.
                        cached_flags[position] = index > 0
            self.stats.lut_builds += len(groups)
            pooled_runs = sum(len(jobs) for _, jobs in groups.values())
            self.stats.lut_hits += pooled_runs - len(groups)
            self.stats.runs += pooled_runs

        return ResultSet(
            RunRecord(
                config=config, result=results[position],
                lut_cached=cached_flags[position],
            )
            for position, config in enumerate(configs)
        )

    # -- cache control ----------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached runtime/time slice and reset the stats."""
        self._runtimes.clear()
        self._t_slices.clear()
        self.stats = EngineStats()

    @property
    def cached_runtimes(self) -> int:
        """Number of distinct runtimes currently memoized."""
        return len(self._runtimes)

    def stats_snapshot(self) -> dict:
        """The current :class:`EngineStats` as a JSON-ready dict.

        Adds the derived ``cached_runtimes`` count and the hit rates the
        serving daemon exports as gauges: ``lut_hit_rate`` (in-memory
        runtime reuse over all runtime requests) and ``store_hit_rate``
        (store-served runs over all store consultations); both are 0.0
        before any traffic.
        """
        snapshot = dataclasses.asdict(self.stats)
        snapshot["cached_runtimes"] = self.cached_runtimes
        runtime_requests = self.stats.lut_hits + self.stats.lut_builds
        snapshot["lut_hit_rate"] = (
            self.stats.lut_hits / runtime_requests if runtime_requests else 0.0
        )
        consultations = self.stats.store_hits + self.stats.store_misses
        snapshot["store_hit_rate"] = (
            self.stats.store_hits / consultations if consultations else 0.0
        )
        return snapshot


_SHARED: Engine | None = None


def shared_engine() -> Engine:
    """The process-wide engine the analysis layers and CLI share.

    Sharing one cache domain means a CLI invocation, a savings grid and
    a sweep all reuse each other's LUTs within one interpreter.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = Engine()
    return _SHARED
