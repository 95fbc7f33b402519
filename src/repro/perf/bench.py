"""The ``repro bench`` measurement sections.

:data:`SECTIONS` is the one table of sections.  Each row names a
section, the function that measures it (its docstring says what), the
higher-is-better headline metric ``repro trend`` compares against the
committed baselines, the gates ``repro bench --gate`` enforces, and the
metrics ``repro bench`` prints.  Every section is written as one
``BENCH_<section>.json``.

All timings are best-of-``repeats`` :func:`time.perf_counter` walls.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ..api.config import ExperimentConfig
from ..api.engine import Engine
from ..api.registry import MODELS
from ..arch.specs import HH_PIM
from ..core import lutcache
from ..core.knapsack import scalar_dp
from ..core.placement import (
    DEFAULT_BLOCK_COUNT,
    DEFAULT_TIME_STEPS,
    DataPlacementOptimizer,
)
from ..core.runtime import default_time_slice_ns, scalar_runtime
from ..qos.queueing import QoSSimulator, scalar_qos
from ..qos.requests import sample_request_batch
from ..workloads.arrivals import bursty

#: Common prefix of every benchmark artifact file.
BENCH_PREFIX = "BENCH_"


def default_bench_settings(
    quick: bool = False,
    block_count: int = DEFAULT_BLOCK_COUNT,
    time_steps: int = DEFAULT_TIME_STEPS,
    repeats: int | None = None,
) -> dict:
    """The knobs a bench run needs, scaled down under ``--quick``.

    ``--quick`` trims repeats and the sweep grid for CI latency but keeps
    the LUT build at the requested (default: full) resolution — the perf
    gate is only meaningful against the real construction cost.
    """
    return {
        "quick": quick,
        "repeats": (1 if quick else 3) if repeats is None else repeats,
        # Resolution of the lut_build and lut_cache sections.
        "block_count": block_count,
        "time_steps": time_steps,
        "sweep_archs": ["HH-PIM", "Hybrid-PIM"] if quick
        else ["Baseline-PIM", "Heterogeneous-PIM", "Hybrid-PIM", "HH-PIM"],
        "sweep_cases": ["case1", "case3"] if quick
        else ["case1", "case2", "case3", "case4", "case5", "case6"],
        "sweep_slices": 10 if quick else 50,
        "sweep_blocks": 24 if quick else 48,
        "sweep_steps": 1500 if quick else 6000,
        "lookups": 2000 if quick else 20000,
        "runtime_slices": 2000 if quick else 10000,
        "qos_slices": 400 if quick else 1000,
        "serve_cases": ["case1", "case2", "case3"] if quick
        else ["case1", "case2", "case3", "case4", "case5", "case6"],
        "serve_slices": 8 if quick else 20,
        "dist_workers": 4,
        "dist_configs": 24 if quick else 32,
        "dist_chunk": 1,
        # Big enough that overlapped sleeps dominate the serialized
        # worker-spawn ramp even on a single core; identical for both
        # passes, so the speedup isolates executor scheduling.
        "dist_stall_s": 1.0,
        "obs_slices": 200 if quick else 500,
        "obs_null_calls": 100_000 if quick else 500_000,
    }


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _metadata(settings: dict) -> dict:
    return {
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "quick": settings["quick"],
    }


# -- sections --------------------------------------------------------------------


def bench_lut_build(settings: dict, model_name: str) -> dict:
    """Frontier vs scalar-reference LUT construction on HH-PIM.

    ``vectorized_s`` times the production (frontier) path; the key keeps
    its name so committed baselines stay comparable.
    """
    block_count = settings["block_count"]
    time_steps = settings["time_steps"]
    model = MODELS.get(model_name)
    t_slice_ns = default_time_slice_ns(
        model, block_count=block_count, time_steps=time_steps
    )
    optimizer = DataPlacementOptimizer(
        HH_PIM,
        model,
        t_slice_ns=t_slice_ns,
        block_count=block_count,
        time_steps=time_steps,
    )
    built = {}

    def build() -> None:
        built["lut"] = optimizer.build_lut()

    vectorized_s = _best_of(build, settings["repeats"])
    with scalar_dp():
        # The scalar reference is orders of magnitude slower; one
        # repetition bounds bench latency without hurting the gate.
        scalar_s = _best_of(optimizer.build_lut, 1)
    return {
        "arch": "HH-PIM",
        "model": model.name,
        "block_count": block_count,
        "time_steps": optimizer.time_steps,
        "t_slice_ns": t_slice_ns,
        "vectorized_s": vectorized_s,
        "scalar_s": scalar_s,
        "speedup": scalar_s / vectorized_s,
        "lut_candidates": len(built["lut"]),
    }


def bench_lut_cache(settings: dict, model_name: str) -> dict:
    """Cold build-and-persist vs warm load from the persistent cache.

    Runs against a throwaway cache directory so the measurement is
    always a true cold/warm pair, regardless of the user's cache state.
    ``warm_dp_builds`` must be zero or the cache is broken.
    """
    config = ExperimentConfig(
        model=MODELS.canonical(model_name),
        block_count=settings["block_count"],
        time_steps=settings["time_steps"],
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        with lutcache.temporary_cache_dir(tmp):
            cold_engine = Engine()
            cold_s = _best_of(lambda: cold_engine.runtime(config), 1)
            cold_builds = cold_engine.stats.dp_builds

            warm_engine = Engine()
            warm_s = _best_of(lambda: warm_engine.runtime(config), 1)
            warm_builds = warm_engine.stats.dp_builds
            entries = lutcache.info()
    return {
        "model": config.model,
        "block_count": config.block_count,
        "time_steps": config.time_steps,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_dp_builds": cold_builds,
        "warm_dp_builds": warm_builds,
        "load_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "cache_entries": entries["entries"],
        "cache_bytes": entries["bytes"],
    }


def bench_sweep(settings: dict, model_name: str) -> dict:
    """Engine ``run_many`` throughput: cold, memory-warm and disk-warm.

    A fresh engine served purely by the disk cache must do zero DP
    builds (``disk_warm_dp_builds``): the cross-process zero-rebuild
    property.
    """
    grid = ExperimentConfig(
        model=MODELS.canonical(model_name),
        slices=settings["sweep_slices"],
        block_count=settings["sweep_blocks"],
        time_steps=settings["sweep_steps"],
    ).sweep(arch=settings["sweep_archs"], scenario=settings["sweep_cases"])

    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as tmp:
        with lutcache.temporary_cache_dir(tmp):
            engine = Engine()
            cold_s = _best_of(lambda: engine.run_many(grid), 1)
            cold_builds = engine.stats.dp_builds
            warm_s = _best_of(lambda: engine.run_many(grid), 1)

            fresh = Engine()
            disk_warm_s = _best_of(lambda: fresh.run_many(grid), 1)
            disk_builds = fresh.stats.dp_builds
            disk_hits = fresh.stats.lut_disk_hits
    return {
        "runs": len(grid),
        "archs": settings["sweep_archs"],
        "cases": settings["sweep_cases"],
        "slices": settings["sweep_slices"],
        "cold_s": cold_s,
        "cold_runs_per_s": len(grid) / cold_s,
        "cold_dp_builds": cold_builds,
        "warm_s": warm_s,
        "warm_runs_per_s": len(grid) / warm_s,
        "disk_warm_s": disk_warm_s,
        "disk_warm_runs_per_s": len(grid) / disk_warm_s,
        "disk_warm_dp_builds": disk_builds,
        "disk_warm_disk_hits": disk_hits,
    }


def bench_lookup(settings: dict, model_name: str) -> dict:
    """Mean per-slice LUT lookup latency over the feasible budget range:
    the paper's O(log n) runtime claim."""
    lookups = settings["lookups"]
    engine = Engine(use_disk_cache=False)
    runtime = engine.runtime(
        ExperimentConfig(
            model=MODELS.canonical(model_name),
            block_count=24,
            time_steps=1500,
        )
    )
    lut = runtime.lut
    budgets = np.linspace(
        lut.min_feasible_t_ns, runtime.t_slice_ns, lookups
    ).tolist()
    start = time.perf_counter()
    for budget in budgets:
        lut.lookup(budget)
    elapsed = time.perf_counter() - start
    return {
        "model": MODELS.canonical(model_name),
        "lookups": lookups,
        "lut_candidates": len(lut),
        "total_s": elapsed,
        "mean_us": elapsed / lookups * 1e6,
        "lookups_per_s": lookups / elapsed,
    }


def bench_runtime(settings: dict, model_name: str) -> dict:
    """Slice-loop throughput: vectorized driver vs the scalar reference.

    Runs a long bursty (MMPP) scenario — the shape a serving deployment
    sees — on an HH-PIM runtime at reduced optimizer resolution, so the
    measurement isolates the slice loop rather than LUT construction.
    """
    engine = Engine(use_disk_cache=False)
    runtime = engine.runtime(
        ExperimentConfig(
            model=MODELS.canonical(model_name),
            block_count=24,
            time_steps=1500,
        )
    )
    slices = settings["runtime_slices"]
    workload = bursty().materialize(slices=slices, peak=10, seed=2025)

    vectorized_s = _best_of(
        lambda: runtime.run_vectorized(workload), settings["repeats"]
    )
    with scalar_runtime():
        scalar_s = _best_of(lambda: runtime.run(workload), 1)
    return {
        "arch": "HH-PIM",
        "model": MODELS.canonical(model_name),
        "scenario": workload.label,
        "slices": slices,
        "vectorized_s": vectorized_s,
        "vectorized_slices_per_s": slices / vectorized_s,
        "scalar_s": scalar_s,
        "scalar_slices_per_s": slices / scalar_s,
        "speedup": scalar_s / vectorized_s,
    }


def bench_qos(settings: dict, model_name: str) -> dict:
    """Vectorized vs scalar-reference QoS throughput under serving stress.

    A heavily overloaded bursty scenario on a capacity-constrained
    fleet (the queue-depth autoscaler saturates at four devices, so
    backlogs run deep) with EDF queueing and batch-8 service — every
    QoS mechanism on the clock at once, at serving-stress request
    volume.  The request stream is sampled once and replayed through
    both engines, so the metric isolates the simulator, not the
    sampler, and the two passes are a true like-for-like
    (bit-identical) pair.
    """
    engine = Engine(use_disk_cache=False)
    runtime = engine.runtime(
        ExperimentConfig(
            model=MODELS.canonical(model_name),
            block_count=24,
            time_steps=1500,
        )
    )
    slices = settings["qos_slices"]
    workload = bursty(calm_rate=40.0, burst_rate=160.0).materialize(
        slices=slices, peak=200, seed=2025
    )
    requests = sample_request_batch(workload, runtime.t_slice_ns, seed=2025)
    out = {}

    def simulate() -> None:
        # Fresh simulator per repetition: policies and autoscalers are
        # stateful over one run.
        simulator = QoSSimulator(
            runtime,
            devices=2,
            max_devices=4,
            autoscaler="queue_depth",
            discipline="edf",
            batch=8,
        )
        out["result"] = simulator.run(workload, requests=requests)

    vectorized_s = _best_of(simulate, settings["repeats"])
    result = out["result"]
    with scalar_qos():
        # The per-event reference is the slow side; one repetition
        # bounds bench latency without hurting the gate.
        scalar_s = _best_of(simulate, 1)
    return {
        "arch": "HH-PIM",
        "model": MODELS.canonical(model_name),
        "scenario": workload.label,
        "slices": slices,
        "requests": len(requests),
        "windows": len(result.slices),
        "completed": result.completed,
        "unfinished": result.unfinished,
        "slo_attainment": result.slo_attainment,
        "mean_fleet_size": result.mean_fleet_size,
        "vectorized_s": vectorized_s,
        "scalar_s": scalar_s,
        "wall_s": vectorized_s,
        "requests_per_s": len(requests) / vectorized_s,
        "scalar_requests_per_s": len(requests) / scalar_s,
        "windows_per_s": len(result.slices) / vectorized_s,
        "speedup": scalar_s / vectorized_s,
    }


def bench_store(settings: dict, model_name: str) -> dict:
    """Compute-and-persist sweep vs warm resume from the store.

    Both passes run the same grid as :func:`bench_sweep` against a
    throwaway store and a throwaway LUT cache.  An untimed sweep with no
    store fills that LUT cache first, so the cold pass loads every LUT
    from disk and its time is the runs plus the store writes, not the
    DP build; the warm number is a pure store resume (a fresh engine,
    zero scenario runs, zero DP builds).
    """
    from ..store import Store

    grid = ExperimentConfig(
        model=MODELS.canonical(model_name),
        slices=settings["sweep_slices"],
        block_count=settings["sweep_blocks"],
        time_steps=settings["sweep_steps"],
    ).sweep(arch=settings["sweep_archs"], scenario=settings["sweep_cases"])

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        with lutcache.temporary_cache_dir(Path(tmp) / "lut"):
            Engine().run_many(grid)
            store = Store(Path(tmp) / "store")
            cold_engine = Engine(store=store)
            cold_s = _best_of(lambda: cold_engine.run_many(grid), 1)

            warm_engine = Engine(store=store)
            warm_s = _best_of(lambda: warm_engine.run_many(grid), 1)
            state = store.info()
    return {
        "runs": len(grid),
        "archs": settings["sweep_archs"],
        "cases": settings["sweep_cases"],
        "slices": settings["sweep_slices"],
        "cold_s": cold_s,
        "cold_runs_per_s": len(grid) / cold_s,
        "cold_store_misses": cold_engine.stats.store_misses,
        "cold_dp_builds": cold_engine.stats.dp_builds,
        "warm_s": warm_s,
        "warm_runs_per_s": len(grid) / warm_s,
        "warm_store_hits": warm_engine.stats.store_hits,
        "warm_runs_executed": warm_engine.stats.runs,
        "warm_dp_builds": warm_engine.stats.dp_builds,
        "resume_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "store_entries": state["entries"],
        "store_bytes": state["bytes"],
    }


def bench_serve(settings: dict, model_name: str) -> dict:
    """Warm resident-daemon submissions vs cold per-process engines.

    The cold pass runs each QoS config on its own fresh engine — the
    cost floor of one CLI invocation per config, minus interpreter
    startup.  The warm pass stands up an in-process
    :class:`~repro.service.daemon.ServeDaemon` (no store, no disk
    cache, so memoization is the *only* advantage), primes it with one
    submission, then times the same batch end to end over the real wire
    protocol.  Every timed job reuses the first submission's LUT:
    ``warm_dp_builds`` must be zero.
    """
    from ..service.client import ServeClient
    from ..service.daemon import ServeDaemon

    configs = [
        ExperimentConfig(
            model=MODELS.canonical(model_name),
            scenario=case,
            slices=settings["serve_slices"],
            block_count=settings["sweep_blocks"],
            time_steps=settings["sweep_steps"],
        )
        for case in settings["serve_cases"]
    ]

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        with lutcache.temporary_cache_dir(Path(tmp) / "lut"):

            def cold_pass() -> None:
                for config in configs:
                    Engine(use_disk_cache=False).run_qos(config)

            cold_s = _best_of(cold_pass, 1)

            daemon = ServeDaemon(
                port=0,
                engine=Engine(use_disk_cache=False),
                log=lambda line: None,
            )
            daemon.start()
            try:
                client = ServeClient(port=daemon.port)
                start = time.perf_counter()
                client.result(client.submit(configs[0]))
                warmup_s = time.perf_counter() - start
                dp_before = daemon.engine.stats.dp_builds
                start = time.perf_counter()
                for job_id in [client.submit(c) for c in configs]:
                    client.result(job_id)
                warm_s = time.perf_counter() - start
                warm_dp_builds = daemon.engine.stats.dp_builds - dp_before
                stats = daemon.engine.stats_snapshot()
            finally:
                daemon.drain()
                daemon.stop()
    return {
        "jobs": len(configs),
        "cases": settings["serve_cases"],
        "slices": settings["serve_slices"],
        "cold_s": cold_s,
        "cold_jobs_per_s": len(configs) / cold_s,
        "warmup_s": warmup_s,
        "warm_s": warm_s,
        "warm_jobs_per_s": len(configs) / warm_s,
        "warm_dp_builds": warm_dp_builds,
        "daemon_lut_builds": stats["lut_builds"],
        "daemon_lut_hits": stats["lut_hits"],
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
    }


def bench_dist(settings: dict, model_name: str) -> dict:
    """1-worker vs N-worker distributed sweep under a synthetic run cost.

    Both passes push the same seed grid through
    :func:`~repro.dist.executor.distributed_sweep` into throwaway
    stores, with ``REPRO_DIST_RUN_STALL_S`` charging every config an
    identical sleep after it computes.  Sleeps overlap across worker
    processes even on one core, so the 4-worker pass beats the 1-worker
    baseline exactly as far as the coordinator keeps its pool fed —
    a serialized claim loop, leaked lease, or blocking COMPLETE path
    shows up directly as lost speedup.  The shared LUT disk cache is
    warmed first so neither pass pays DP construction.
    """
    from ..dist.executor import distributed_sweep

    workers = settings["dist_workers"]
    stall_s = settings["dist_stall_s"]
    grid = ExperimentConfig(
        model=MODELS.canonical(model_name),
        slices=4,
        block_count=16,
        time_steps=1500,
    ).sweep(seed=list(range(2025, 2025 + settings["dist_configs"])))
    env = {"REPRO_DIST_RUN_STALL_S": repr(stall_s)}
    status = {"baseline": {}, "dist": {}}

    with tempfile.TemporaryDirectory(prefix="repro-bench-dist-") as tmp:
        with lutcache.temporary_cache_dir(Path(tmp) / "lut"):
            # One build primes the disk cache every worker inherits
            # (the whole grid shares a runtime key — seeds only vary
            # the workload sample, not the LUT).
            Engine().runtime(grid[0])

            baseline_s = _best_of(
                lambda: distributed_sweep(
                    grid,
                    Path(tmp) / "store-baseline",
                    workers=1,
                    chunk_size=settings["dist_chunk"],
                    env=env,
                    log=lambda line: None,
                    status_sink=status["baseline"].update,
                ),
                1,
            )
            dist_s = _best_of(
                lambda: distributed_sweep(
                    grid,
                    Path(tmp) / "store-pool",
                    workers=workers,
                    chunk_size=settings["dist_chunk"],
                    env=env,
                    log=lambda line: None,
                    status_sink=status["dist"].update,
                ),
                1,
            )
    chunks = status["dist"].get("chunks", {})
    return {
        "configs": len(grid),
        "workers": workers,
        "chunk_size": settings["dist_chunk"],
        "run_stall_s": stall_s,
        "cores": os.cpu_count(),
        "baseline_s": baseline_s,
        "baseline_runs_per_s": len(grid) / baseline_s,
        "dist_s": dist_s,
        "dist_runs_per_s": len(grid) / dist_s,
        "chunks_completed": chunks.get("completed", 0),
        "chunks_stolen": chunks.get("stolen", 0),
        "pool_workers_seen": len(status["dist"].get("workers", {})),
        "speedup": baseline_s / dist_s if dist_s > 0 else float("inf"),
    }


def bench_obs(settings: dict, model_name: str) -> dict:
    """Tracing overhead: the null-span path and an enabled-tracer pass.

    The observability contract is *near-zero cost when off*: every
    instrumented call site pays one module-global read and a reused
    null context manager.  This section times that disabled path
    directly (``null_span_ns`` over a tight calibration loop), runs the
    QoS workload untraced and with an active tracer
    (``enabled_overhead``), and folds the two into
    ``disabled_overhead`` — the estimated fraction of the untraced wall
    the instrumentation costs with tracing off (span count × null-span
    cost / wall).
    """
    from ..obs import tracing as obs_tracing

    engine = Engine(use_disk_cache=False)
    runtime = engine.runtime(
        ExperimentConfig(
            model=MODELS.canonical(model_name),
            block_count=24,
            time_steps=1500,
        )
    )
    slices = settings["obs_slices"]
    workload = bursty(calm_rate=40.0, burst_rate=160.0).materialize(
        slices=slices, peak=200, seed=2025
    )
    requests = sample_request_batch(workload, runtime.t_slice_ns, seed=2025)

    def simulate() -> None:
        simulator = QoSSimulator(
            runtime,
            devices=2,
            max_devices=4,
            autoscaler="queue_depth",
            discipline="edf",
            batch=8,
        )
        simulator.run(workload, requests=requests)

    # The disabled fast path, timed directly: one global read plus the
    # shared null context manager per call site.
    calls = settings["obs_null_calls"]
    null_span = obs_tracing.span

    def null_loop() -> None:
        for _ in range(calls):
            with null_span("bench.null"):
                pass

    null_s = _best_of(null_loop, settings["repeats"])
    null_span_ns = null_s * 1e9 / calls

    untraced_s = _best_of(simulate, settings["repeats"])
    tracer = obs_tracing.activate(proc="bench")
    try:
        enabled_s = _best_of(simulate, settings["repeats"])
    finally:
        obs_tracing.deactivate()
    spans_recorded = tracer.spans_recorded
    disabled_overhead = (
        spans_recorded * null_span_ns / (untraced_s * 1e9)
        if untraced_s > 0
        else 0.0
    )
    return {
        "model": MODELS.canonical(model_name),
        "scenario": workload.label,
        "slices": slices,
        "requests": len(requests),
        "null_calls": calls,
        "null_span_ns": null_span_ns,
        "null_spans_per_s": calls / null_s if null_s > 0 else float("inf"),
        "untraced_s": untraced_s,
        "enabled_s": enabled_s,
        "spans_recorded": spans_recorded,
        "enabled_overhead": (
            enabled_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
        ),
        "disabled_overhead": disabled_overhead,
    }


# -- the section table ---------------------------------------------------------------


class Gate(NamedTuple):
    """A threshold one section metric must hold under ``--gate``."""

    #: The metric of the section's report that is checked.
    metric: str
    #: ``"min"`` (value >= threshold) or ``"max"`` (value <= threshold).
    kind: str
    threshold: float
    #: Why the threshold holds on any runner, for the failure message.
    reason: str

    def holds(self, value: float) -> bool:
        """Whether ``value`` is on the passing side of the threshold."""
        if self.kind == "min":
            return value >= self.threshold
        return value <= self.threshold


@dataclass(frozen=True)
class BenchSection:
    """One row of :data:`SECTIONS`."""

    #: Section name; its artifact is ``BENCH_<name>.json``.
    name: str
    #: ``run(settings, model_name)`` measures the section's metrics.
    run: Callable[[dict, str], dict]
    #: The higher-is-better metric ``repro trend`` compares.
    headline: str
    #: The thresholds ``repro bench --gate`` enforces.
    gates: tuple[Gate, ...]
    #: The metrics ``repro bench`` prints, in order.
    summary: tuple[str, ...]


#: Every bench section, in run order.
SECTIONS: tuple[BenchSection, ...] = (
    BenchSection(
        "lut_build", bench_lut_build, "speedup",
        (Gate("speedup", "min", 1.0, "the vectorized LUT build must not "
              "fall behind the scalar reference it replaces"),),
        ("block_count", "time_steps", "vectorized_s", "scalar_s", "speedup"),
    ),
    BenchSection(
        "lut_cache", bench_lut_cache, "load_speedup", (),
        ("cold_s", "warm_s", "warm_dp_builds", "load_speedup"),
    ),
    BenchSection(
        "sweep", bench_sweep, "disk_warm_runs_per_s", (),
        ("runs", "cold_runs_per_s", "warm_runs_per_s",
         "disk_warm_runs_per_s", "disk_warm_dp_builds"),
    ),
    BenchSection(
        "lookup", bench_lookup, "lookups_per_s", (),
        ("lut_candidates", "mean_us", "lookups_per_s"),
    ),
    BenchSection(
        "runtime", bench_runtime, "speedup",
        (Gate("speedup", "min", 1.0, "the vectorized slice loop must not "
              "fall behind the scalar reference it replaces"),),
        ("slices", "vectorized_slices_per_s", "scalar_slices_per_s",
         "speedup"),
    ),
    BenchSection(
        "qos", bench_qos, "speedup",
        (
            Gate("requests_per_s", "min", 200.0, "dev machines clock ~50k "
                 "requests/s, so 200 allows a ~250x slower runner and still "
                 "catches a collapse; requests_per_scalar_slice tracks drift"),
            Gate("speedup", "min", 5.0, "the vectorized QoS engine beats the "
                 "per-event reference ~10x on dev machines, on one runner"),
        ),
        ("requests", "requests_per_s", "scalar_requests_per_s", "speedup",
         "slo_attainment"),
    ),
    BenchSection(
        "store", bench_store, "resume_speedup",
        (Gate("resume_speedup", "min", 2.0, "a warm resume is typically "
              ">10x faster; below 2x the store is recomputing"),),
        ("runs", "cold_s", "warm_s", "warm_runs_executed", "resume_speedup"),
    ),
    BenchSection(
        "serve", bench_serve, "speedup",
        (Gate("warm_dp_builds", "max", 0, "a warm daemon keeps its LUT "
              "state, so the timed jobs, which repeat the warm-up's "
              "runtime key, build no DP table"),),
        ("jobs", "cold_s", "warm_s", "warm_dp_builds", "speedup"),
    ),
    BenchSection(
        "dist", bench_dist, "speedup",
        (Gate("speedup", "min", 2.5, "the synthetic sleeps overlap on any "
              "core count, so 4 workers vs 1 measures scheduling (~2.9x)"),),
        ("configs", "workers", "baseline_s", "dist_s", "chunks_stolen",
         "speedup"),
    ),
    BenchSection(
        "obs", bench_obs, "null_spans_per_s",
        (Gate("disabled_overhead", "max", 0.05, "disabled tracing costs "
              "well under 1% of the untraced QoS workload on dev machines"),),
        ("null_span_ns", "spans_recorded", "disabled_overhead",
         "enabled_overhead"),
    ),
)


# -- orchestration ---------------------------------------------------------------


def run_bench(
    quick: bool = False,
    model: str = "EfficientNet-B0",
    block_count: int = DEFAULT_BLOCK_COUNT,
    time_steps: int = DEFAULT_TIME_STEPS,
    repeats: int | None = None,
) -> dict:
    """Run every section; returns ``{section: metrics}`` plus metadata."""
    settings = default_bench_settings(quick, block_count, time_steps, repeats)
    report = {"meta": _metadata(settings)}
    for section in SECTIONS:
        report[section.name] = section.run(settings, model)
    # A machine-relative companion to requests_per_s: QoS requests
    # simulated per scalar-reference slice on the same box, so the perf
    # trajectory can separate simulator regressions from runner speed.
    scalar_rate = report["runtime"]["scalar_slices_per_s"]
    report["qos"]["requests_per_scalar_slice"] = (
        report["qos"]["requests_per_s"] / scalar_rate if scalar_rate else 0.0
    )
    return report


def check_gates(report: dict) -> list[str]:
    """One line per gate of :data:`SECTIONS` the report misses."""
    failures = []
    for section in SECTIONS:
        for gate in section.gates:
            value = report[section.name][gate.metric]
            if not gate.holds(value):
                bound = ">=" if gate.kind == "min" else "<="
                failures.append(
                    f"{section.name}.{gate.metric} is {value:.4g}, needs "
                    f"{bound} {gate.threshold:g}: {gate.reason}"
                )
    return failures


def write_reports(report: dict, out_dir) -> list:
    """Write one ``BENCH_<section>.json`` per section; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for section, metrics in report.items():
        if section == "meta":
            continue
        path = out / f"{BENCH_PREFIX}{section}.json"
        payload = {"bench": section, **report["meta"], "metrics": metrics}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def _format(value) -> str:
    if isinstance(value, int) or abs(value) >= 100:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def render_report(report: dict) -> str:
    """Human-readable summary: one line per section."""
    return "\n".join(
        f"{section.name:<10} "
        + ", ".join(
            f"{metric} {_format(report[section.name][metric])}"
            for metric in section.summary
        )
        for section in SECTIONS
    )
