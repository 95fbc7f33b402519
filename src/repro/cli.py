"""Command-line interface: regenerate paper artifacts from the shell.

Usage::

    python -m repro table3                 # Table III latencies
    python -m repro table5                 # Table V power
    python -m repro fig4                   # Fig. 4 scenario strips
    python -m repro fig6 --model ResNet-18 # Fig. 6 sweep
    python -m repro run --case 3           # one scenario, all architectures
    python -m repro run --case 1 --json    # machine-readable run summary
    python -m repro sweep --model ResNet-18 --case 1 --case 2
    python -m repro sweep --store runs/ --shard 0/4   # fill shard 0 of 4
    python -m repro sweep --store runs/ --resume      # stitch, zero recompute
    python -m repro sweep --store runs/ --spill       # bounded-memory sweep
    python -m repro sweep --store runs/ --workers 4   # work-stealing pool
    python -m repro sweep-worker --connect HOST:PORT  # attach one worker
    python -m repro fleet --devices 4 --dispatch least_loaded --scenario bursty
    python -m repro qos --scenario bursty --autoscaler queue_depth --json
    python -m repro scenarios              # registered scenarios, previewed
    python -m repro bench --quick          # perf harness -> BENCH_*.json
    python -m repro trend --current out/   # compare vs committed baselines
    python -m repro cache info             # persistent LUT cache state
    python -m repro store info             # persistent experiment store
    python -m repro docs                   # regenerate docs/REGISTRY.md
    python -m repro list                   # registered specs
    python -m repro serve                  # resident daemon (warm engine)
    python -m repro submit --scenario bursty    # job to a running daemon
    python -m repro status --metrics       # scrape the daemon's metrics
    python -m repro shutdown               # drain the daemon and stop it
    python -m repro sweep --trace t.json   # record a Perfetto-loadable trace
    python -m repro profile t.json         # fold a trace into a phase table

Every experiment command goes through :class:`repro.api.Engine`, so
architectures, models and scenarios registered via :mod:`repro.api`
are immediately available on the command line.  Heavy artifacts accept
``--blocks/--steps`` to trade fidelity for speed, and ``--workers`` to
batch over a process pool (with ``sweep --store DIR`` it instead
forks that many work-stealing worker processes; 0 starts a
coordinator alone for ``repro sweep-worker`` to attach to).  Library
failures (bad configuration, infeasible placements) exit with code 2
and a one-line error.

Each handler imports the subsystem it runs, and building the parser
loads no numpy, so a command pays start-up only for what it uses.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ReproError


def _cmd_table1(_args) -> str:
    from .analysis import TextTable
    from .arch import TABLE_I

    table = TextTable(["Architecture", "Modules", "Memory per module"])
    for spec in TABLE_I:
        modules = f"{spec.hp.module_count} HP"
        if spec.lp:
            modules += f" + {spec.lp.module_count} LP"
        memory = []
        if spec.hp.mram_capacity:
            memory.append(f"{spec.hp.mram_capacity // 1024}kB MRAM")
        memory.append(f"{spec.hp.sram_capacity // 1024}kB SRAM")
        table.add_row(spec.name, modules, " + ".join(memory))
    return table.render()


def _cmd_table2(_args) -> str:
    from .fpga import table_ii_report

    return table_ii_report().render()


def _cmd_table3(_args) -> str:
    from .analysis import TextTable
    from .memory import NvSimModel, PE_45NM, SRAM_45NM, STT_MRAM_45NM
    from .memory.technology import HP_VDD, LP_VDD

    table = TextTable(["Latency (ns)", "MRAM R", "MRAM W", "SRAM R",
                       "SRAM W", "PE"])
    for label, vdd in (("HP-PIM (1.2V)", HP_VDD), ("LP-PIM (0.8V)", LP_VDD)):
        mram = NvSimModel(STT_MRAM_45NM).estimate(64 * 1024, vdd)
        sram = NvSimModel(SRAM_45NM).estimate(64 * 1024, vdd)
        table.add_row(label,
                      round(mram.timing.read_ns, 2),
                      round(mram.timing.write_ns, 2),
                      round(sram.timing.read_ns, 2),
                      round(sram.timing.write_ns, 2),
                      round(PE_45NM.mac_latency(vdd), 2))
    return table.render()


def _cmd_table4(_args) -> str:
    from .analysis import TextTable
    from .workloads import TABLE_IV

    table = TextTable(["Model", "# Param", "# MAC", "PIM ops"])
    for model in TABLE_IV:
        table.add_row(model.name, model.params, model.macs,
                      f"{model.pim_ratio:.0%}")
    return table.render()


def _cmd_table5(_args) -> str:
    from .analysis import TextTable
    from .energy import table_v_rows

    table = TextTable(["Power (mW)", "MRAM R/W", "MRAM static",
                       "SRAM R/W", "SRAM static", "PE dyn/static"])
    for row in table_v_rows():
        table.add_row(
            row.cluster,
            f"{row.mram_read_mw:.2f}/{row.mram_write_mw:.2f}",
            round(row.mram_static_mw, 2),
            f"{row.sram_read_mw:.2f}/{row.sram_write_mw:.2f}",
            round(row.sram_static_mw, 2),
            f"{row.pe_dynamic_mw:.2f}/{row.pe_static_mw:.2f}",
        )
    return table.render()


def _cmd_fig4(args) -> str:
    from .analysis import render_fig4
    from .workloads import ALL_CASES, scenario

    return render_fig4([scenario(case, slices=args.slices) for case in ALL_CASES])


def _cmd_fig6(args) -> str:
    from .analysis import render_fig6
    from .api import ExperimentConfig, shared_engine

    config = ExperimentConfig(
        arch="HH-PIM", model=args.model,
        block_count=args.blocks, time_steps=args.steps,
    )
    runtime = shared_engine().runtime(config)
    return render_fig6(runtime.lut, points=args.points)


def _base_config(args):
    from .api import ExperimentConfig

    return ExperimentConfig(
        slices=args.slices, block_count=args.blocks, time_steps=args.steps,
        lut_cache=not getattr(args, "no_cache", False),
    )


def _resolve_axis(values, registry) -> list:
    """A repeatable CLI axis, defaulting to every key of its registry."""
    return values or registry.keys()


def _results_table(results):
    """Per-run comparison table with savings against HH-PIM if present."""
    from .analysis import TextTable

    hh = {
        (r.model, r.scenario): r.total_energy_nj
        for r in results
        if r.arch == "HH-PIM"
    }
    table = TextTable(["Architecture", "Model", "Scenario", "Energy (mJ)",
                       "Mean power (mW)", "Deadlines", "Savings vs HH"])
    for record in results:
        reference = hh.get((record.model, record.scenario))
        if reference is None or record.arch == "HH-PIM":
            saving = "-"
        else:
            saving = f"{1 - reference / record.total_energy_nj:.1%}"
        table.add_row(
            record.arch,
            record.model,
            record.scenario,
            round(record.total_energy_nj / 1e6, 2),
            round(record.mean_power_mw, 2),
            "met" if record.deadlines_met else "MISSED",
            saving,
        )
    return table


def _cmd_run(args) -> str:
    import json

    from .api import ARCHITECTURES, shared_engine
    from .workloads import ALL_CASES

    engine = shared_engine()
    configs = _base_config(args).sweep(
        arch=_resolve_axis(args.arch, ARCHITECTURES),
        model=args.model,
        scenario=f"case{args.case}",
    )
    results = engine.run_many(configs, max_workers=args.workers)
    if args.json:
        rows = results.to_rows()
        if args.records:
            # The full per-slice export (RunResult.to_dict), so
            # downstream tools never touch dataclass internals.
            for row, record in zip(rows, results):
                row["records"] = record.result.to_dict()["records"]
        return json.dumps(rows, indent=2)
    first = results[0]
    header = (
        f"{first.model}, Case {args.case} "
        f"({ALL_CASES[args.case - 1].label}), "
        f"{args.slices} slices of {first.result.t_slice_ns / 1e6:.1f} ms"
    )
    return header + "\n\n" + _results_table(results).render()


def _cmd_sweep(args) -> str:
    from .analysis import TextTable
    from .api import ARCHITECTURES, MODELS, shared_engine
    from .store import Store, parse_shard, select_shard
    from .workloads import ALL_CASES

    # Reject malformed/out-of-range shards before any grid work so the
    # failure is a clean one-liner, not a traceback mid-expansion.
    if args.shard is not None:
        parse_shard(args.shard)
    engine = shared_engine()
    archs = _resolve_axis(args.arch, ARCHITECTURES)
    models = _resolve_axis(args.model, MODELS)
    cases = args.case or [case.value for case in ALL_CASES]
    configs = _base_config(args).sweep(
        arch=archs,
        model=models,
        scenario=[f"case{case}" for case in cases],
    )
    if args.shard:
        configs = select_shard(configs, args.shard)
    store = Store(args.store) if args.store else None
    if store is None and args.resume:
        raise ReproError("--resume needs --store DIR to resume from")
    if store is None and args.spill:
        raise ReproError("--spill needs --store DIR to spill records into")
    dist_status: dict = {}
    if store is not None and args.workers is not None:
        # With a store attached, --workers N means the work-stealing
        # executor: a coordinator plus N worker *processes* filling the
        # store (0 = coordinator only; attach via repro sweep-worker).
        from .dist.coordinator import DEFAULT_CHUNK_SIZE, DEFAULT_LEASE_S
        from .dist.executor import distributed_sweep

        results = distributed_sweep(
            configs,
            store,
            workers=args.workers,
            chunk_size=args.chunk or DEFAULT_CHUNK_SIZE,
            lease_s=args.lease or DEFAULT_LEASE_S,
            port=args.coordinator_port,
            status_sink=dist_status.update,
        )
    else:
        results = engine.run_many(
            configs, max_workers=args.workers, store=store,
            resume=args.resume, spill=args.spill,
        )
    if args.csv:
        results.to_csv(args.csv)
    if args.json:
        return results.to_json()

    grid_note = (
        f"shard {args.shard} of the grid: {len(results)} runs"
        if args.shard
        else f"{len(results)} runs "
        f"({len(archs)} architectures x {len(models)} models x "
        f"{len(cases)} scenarios)"
    )
    if dist_status:
        chunks = dist_status["chunks"]
        detail = (
            f"distributed over {len(dist_status['workers'])} workers: "
            f"{chunks['completed']} chunks done, {chunks['stolen']} stolen"
        )
    else:
        store_note = (
            f", store hits: {engine.stats.store_hits}, "
            f"misses: {engine.stats.store_misses}"
            if store is not None
            else ""
        )
        detail = (
            f"LUTs built: {engine.stats.lut_builds}, reused: "
            f"{engine.stats.lut_hits}, DP builds: {engine.stats.dp_builds}, "
            f"disk hits: {engine.stats.lut_disk_hits}" + store_note
        )
    lines = [
        grid_note + ", " + detail,
        "",
        _results_table(results).render(),
    ]
    aggregate = results.aggregate(by=args.by)
    summary = TextTable([args.by, "runs", "mean energy (mJ)",
                         "energy/inf (uJ)", "deadline rate"])
    for key, stats in aggregate.items():
        summary.add_row(
            key,
            stats.runs,
            round(stats.mean_energy_nj / 1e6, 2),
            round(stats.energy_per_inference_nj / 1e3, 2),
            f"{stats.deadline_rate:.0%}",
        )
    lines += ["", f"aggregate by {args.by}:", summary.render()]
    if args.csv:
        lines.append(f"\nwrote {len(results)} rows to {args.csv}")
    return "\n".join(lines)


def _cmd_fleet(args) -> str:
    import json

    from .analysis import render_fleet
    from .api import ExperimentConfig, shared_engine

    engine = shared_engine()
    config = ExperimentConfig(
        arch=args.arch,
        model=args.model,
        scenario=args.scenario,
        fleet=args.devices,
        dispatch=args.dispatch,
        slices=args.slices,
        peak=args.peak,
        block_count=args.blocks,
        time_steps=args.steps,
        lut_cache=not args.no_cache,
    )
    result = engine.run_fleet(config)
    if args.json:
        return json.dumps(
            result.to_dict(include_records=args.records), indent=2
        )
    header = (
        f"{config.arch}/{config.model} x{args.devices} "
        f"({result.dispatch}), scenario {result.scenario.label}, "
        f"{len(result.scenario)} slices"
    )
    return header + "\n\n" + render_fleet(result)


def _qos_fields(args) -> dict:
    """The experiment fields behind ``repro qos`` and ``repro submit``.

    Keyed by :class:`~repro.api.config.ExperimentConfig` field name and
    left as typed, so ``repro submit`` sends them without loading the
    engine; the daemon validates and canonicalises them as
    :func:`_qos_config` does.  Fields without a flag are left out for
    ``from_dict`` to default.
    """
    return {
        "arch": args.arch,
        "model": args.model,
        "scenario": args.scenario,
        "fleet": args.devices,
        "max_fleet": args.max_devices,
        "dispatch": args.dispatch,
        "qos": args.discipline,
        "autoscaler": args.autoscaler,
        "slo": args.slo,
        "batch": args.batch,
        "slices": args.slices,
        "peak": args.peak,
        "seed": args.seed,
        "block_count": args.blocks,
        "time_steps": args.steps,
        "lut_cache": not args.no_cache,
    }


def _qos_config(args):
    """The canonical config behind ``repro qos``."""
    from .api import ExperimentConfig

    return ExperimentConfig.from_dict(_qos_fields(args))


def _cmd_qos(args) -> str:
    import json

    from .analysis import render_qos
    from .api import shared_engine

    engine = shared_engine()
    config = _qos_config(args)
    result = engine.run_qos(config)
    if args.json:
        return json.dumps(
            result.to_dict(include_records=args.records), indent=2
        )
    header = (
        f"{config.arch}/{config.model}, {args.devices}"
        f"->{config.max_fleet or args.devices} devices, "
        f"scenario {result.scenario.label}, "
        f"{result.total_requests} requests over "
        f"{len(result.scenario)} slices"
    )
    return header + "\n\n" + render_qos(result)


def _cmd_serve(args) -> str:
    """Run the resident serving daemon until SHUTDOWN or a signal."""
    from .service.daemon import ServeDaemon

    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        store=args.store,
        workers=args.workers,
        metrics_file=args.metrics_file,
        pidfile=args.pidfile,
        trace=args.trace,
    )
    final = daemon.run()
    jobs = final["jobs"]
    return (
        f"served {jobs['done'] + jobs['failed']} jobs "
        f"({jobs['failed']} failed) over {final['uptime_s']:.1f}s"
    )


def _cmd_submit(args) -> str:
    import json

    from .service.client import ServeClient

    client = ServeClient(host=args.host, port=args.port)
    job_id = client.submit(
        _qos_fields(args), kind=args.kind, records=args.records
    )
    if args.no_wait:
        return job_id
    payload = client.result(job_id, timeout=args.timeout)
    if args.json:
        return json.dumps(payload, indent=2)
    result = payload["result"]
    if payload["kind"] == "qos":
        return (
            f"{job_id}: {result['completed']}/{result['total_requests']} "
            f"requests, SLO attainment {result['slo_attainment']:.1%}, "
            f"energy {result['total_energy_nj'] / 1e6:.2f} mJ"
        )
    row = payload["row"]
    return (
        f"{job_id}: {row['arch']}/{row['model']} on {row['scenario']}, "
        f"energy {row['total_energy_nj'] / 1e6:.2f} mJ, deadlines "
        + ("met" if row["deadlines_met"] else "MISSED")
    )


def _cmd_sweep_worker(args) -> str:
    """Attach one work-stealing worker to a running sweep coordinator."""
    import json

    from .dist.worker import run_worker

    host, sep, port = args.connect.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ReproError(
            f"--connect must look like HOST:PORT, got {args.connect!r}"
        )
    summary = run_worker(
        host, int(port), worker=args.id, max_workers=args.workers
    )
    if args.json:
        return json.dumps(summary)
    abandoned = (
        f", {summary['abandoned']} abandoned" if summary["abandoned"] else ""
    )
    return (
        f"{summary['worker']}: {summary['chunks']} chunks, "
        f"{summary['configs']} configs{abandoned}"
    )


def _cmd_profile(args) -> str:
    """Fold a recorded trace file into the per-phase profile table."""
    from .obs.profile import profile_file

    try:
        return profile_file(args.file)
    except (OSError, ValueError, KeyError) as error:
        raise ReproError(
            f"cannot profile {args.file}: {error}"
        ) from error


def _cmd_fuzz(args) -> str:
    """Fuzz the engine (or replay stored regressions) and report."""
    import json as _json

    from .fuzz import replay_stored, report_json, run_fuzz
    from .store import Store

    store = Store(args.store)
    if args.replay:
        reports = replay_stored(store)
        payload = {
            "replayed": len(reports),
            "failures": sum(1 for report in reports if report.failed),
            "reports": [report.to_dict() for report in reports],
        }
        if args.json:
            text = _json.dumps(payload, indent=2, sort_keys=True)
        else:
            lines = [f"replayed {len(reports)} stored fuzz regression(s)"]
            for report in reports:
                status = "FAIL" if report.failed else "ok"
                lines.append(
                    f"  [{status}] {report.store_key} "
                    f"seed={report.case.case_seed} "
                    f"program={report.case.label}"
                )
                for violation in report.violations:
                    lines.append(
                        f"         {violation.invariant}: {violation.detail}"
                    )
            text = "\n".join(lines)
        if payload["failures"]:
            print(text)
            raise ReproError(
                f"fuzz replay: {payload['failures']} of {len(reports)} "
                f"stored regression(s) still fail"
            )
        return text
    if args.cases < 0:
        raise ReproError(f"--cases must be non-negative, got {args.cases}")
    report = run_fuzz(
        args.seed, args.cases, store=store, shrink=not args.no_shrink
    )
    text = report_json(report) if args.json else report.render()
    if report.violation_count:
        print(text)
        raise ReproError(
            f"fuzz: {report.violation_count} invariant violation(s) across "
            f"{len(report.failures)} of {len(report.reports)} cases (seed "
            f"{args.seed}); failures persisted — inspect with "
            f"'repro store ls --kind fuzz', replay with 'repro fuzz "
            f"--replay'"
        )
    return text


def _render_coordinator_status(state: dict) -> str:
    """The text body ``repro status`` prints for a sweep coordinator."""
    chunks = state["chunks"]
    configs = state["configs"]
    lines = [
        f"sweep coordinator pid {state['pid']} at "
        f"{state['host']}:{state['port']}"
        + (", done" if state["done"] else ""),
        f"chunks: {chunks['completed']}/{chunks['total']} done, "
        f"{chunks['leased']} leased, {chunks['pending']} pending, "
        f"{chunks['stolen']} stolen",
        f"configs: {configs['completed']}/{configs['total']} "
        f"(store {state['store']}, lease {state['lease_s']:.0f}s)",
        f"obs: {state.get('spans_recorded', 0)} spans recorded, "
        f"{state.get('events_logged', 0)} events logged",
    ]
    for name, worker in state["workers"].items():
        lines.append(
            f"  {name}  {worker['chunks_completed']} chunks, "
            f"{worker['configs_completed']} configs, "
            f"{worker['throughput_configs_s']:.2f} configs/s"
        )
    return "\n".join(lines)


def _cmd_status(args) -> str:
    import json

    from .service.client import ServeClient

    client = ServeClient(host=args.host, port=args.port)
    if args.metrics:
        return client.metrics().rstrip("\n")
    state = client.status(args.job)
    if args.json:
        return json.dumps(state, indent=2)
    if "chunks" in state:  # a sweep coordinator answered, not a daemon
        return _render_coordinator_status(state)
    if args.job is not None:
        job = state["job"]
        wall = f", {job['wall_s']:.3f}s" if job["wall_s"] is not None else ""
        error = f" ({job['error']})" if job["error"] else ""
        return f"{job['job_id']}: {job['state']}{wall} [{job['label']}]{error}"
    jobs = state["jobs"]
    engine = state["engine"]
    lines = [
        f"daemon pid {state['pid']} at {state['host']}:{state['port']}, "
        f"up {state['uptime_s']:.1f}s"
        + (", draining" if state["draining"] else ""),
        f"jobs: {jobs['done']} done, {jobs['failed']} failed, "
        f"{jobs['running']} running, {jobs['pending']} queued",
        f"engine: {engine['runs']} runs, {engine['dp_builds']} DP builds, "
        f"{engine['lut_hits']} LUT hits ({engine['lut_hit_rate']:.0%}), "
        f"{engine['store_hits']} store hits",
        f"obs: {state.get('spans_recorded', 0)} spans recorded, "
        f"{state.get('events_logged', 0)} events logged",
    ]
    for job in state["recent"]:
        wall = f" {job['wall_s']:.3f}s" if job["wall_s"] is not None else ""
        lines.append(
            f"  {job['job_id']}  {job['state']:<8}{wall}  [{job['label']}]"
        )
    return "\n".join(lines)


def _cmd_shutdown(args) -> str:
    from .service.client import ServeClient

    client = ServeClient(host=args.host, port=args.port)
    if args.drain:
        done = client.drain(timeout=args.timeout)
        return (
            f"daemon at {args.host}:{args.port} drained ({done} jobs "
            f"done); still answering status/metrics"
        )
    client.shutdown(timeout=args.timeout)
    return f"daemon at {args.host}:{args.port} is draining and stopping"


def _cmd_scenarios(args) -> str:
    """Preview every registered scenario as a sparkline strip."""
    from .analysis import sparkline
    from .api import SCENARIOS, ExperimentConfig, shared_engine

    engine = shared_engine()
    keys = [SCENARIOS.canonical(args.only)] if args.only else SCENARIOS.keys()
    width = max(len(key) for key in keys)
    lines = []
    for key in keys:
        config = ExperimentConfig(
            scenario=key, slices=args.slices, peak=args.peak, low=args.low,
            seed=args.seed,
        )
        try:
            materialised = engine.scenario(config)
        except ReproError as error:
            lines.append(f"{key:<{width}}  (unavailable: {error})")
            continue
        lines.append(
            f"{key:<{width}}  "
            f"{sparkline(materialised.loads, materialised.peak)}  "
            f"(mean {materialised.mean_load:.1f}/slice, "
            f"peak {materialised.peak})"
        )
    return "\n".join(lines)


def _cmd_bench(args) -> str:
    import json

    from .api import MODELS
    from .perf import check_gates, render_report, run_bench, write_reports

    report = run_bench(
        quick=args.quick,
        model=MODELS.canonical(args.model),
        block_count=args.blocks,
        time_steps=args.steps,
        repeats=args.repeats,
    )
    paths = write_reports(report, args.out)
    failures = check_gates(report) if args.gate else []
    if failures:
        raise ReproError("perf gate failed: " + "; ".join(failures))
    if args.json:
        return json.dumps(report, indent=2, sort_keys=True)
    lines = [render_report(report), ""]
    lines += [f"wrote {path}" for path in paths]
    return "\n".join(lines)


def _cmd_trend(args) -> str:
    from pathlib import Path

    from .perf import compare_reports, render_markdown

    deltas = compare_reports(
        args.baseline, args.current, tolerance=args.tolerance
    )
    table = render_markdown(deltas, tolerance=args.tolerance)
    if args.summary:
        Path(args.summary).write_text(table)
    regressions = [delta for delta in deltas if delta.regressed]
    if regressions:
        worst = min(regressions, key=lambda delta: delta.ratio)
        raise ReproError(
            f"perf trend failed: {len(regressions)} of {len(deltas)} "
            f"sections regressed beyond {args.tolerance:.0%} (worst: "
            f"{worst.section} {worst.metric} at {worst.ratio:.2f}x of "
            f"baseline)\n\n{table}"
        )
    return table


def _cmd_store(args) -> str:
    from .analysis.sweeps import render_store
    from .store import Store

    store = Store(args.store)
    if args.action == "clear":
        removed = store.clear()
        return f"removed {removed} stored entries from {store.root}"
    if args.action == "ls":
        return render_store(
            store, by=args.by, kind=args.kind, limit=args.limit
        )
    state = store.info()
    kinds = ", ".join(
        f"{count} {kind}" for kind, count in state["by_kind"].items() if count
    ) or "none"
    lines = [
        f"path:        {state['path']}",
        "             (set REPRO_STORE or pass --store to relocate)",
        f"version:     v{state['version']}",
        f"entries:     {state['entries']} ({kinds}; "
        f"{state['bytes'] / 1024:.0f} kB)",
        f"quarantined: {state['quarantined']}",
    ]
    return "\n".join(lines)


def _cmd_docs(args) -> str:
    from pathlib import Path

    from . import docgen

    path = Path(args.out)
    if args.check:
        problems = docgen.audit_docstrings() + docgen.audit_registrations()
        if not docgen.registry_doc_is_fresh(path):
            problems.append(
                f"{path} is stale; regenerate it with `repro docs`"
            )
        if problems:
            raise ReproError(
                "docs gate failed:\n  " + "\n  ".join(problems)
            )
        return f"docs OK: {path} is fresh and the public API is documented"
    written = docgen.write_registry_doc(path)
    return f"wrote {written}"


def _cmd_cache(args) -> str:
    from .core import lutcache

    if args.action == "clear":
        removed = lutcache.clear()
        return f"removed {removed} cached LUT entries from {lutcache.cache_dir()}"
    state = lutcache.info()
    lines = [
        f"path:    {state['path']}",
        f"enabled: {state['enabled']} "
        "(set REPRO_LUT_CACHE=off to disable, or to a path to relocate)",
        f"version: v{state['version']}",
        f"entries: {state['entries']} ({state['bytes'] / 1024:.0f} kB)",
    ]
    return "\n".join(lines)


def _cmd_list(_args) -> str:
    from .api import (
        ARCHITECTURES,
        AUTOSCALERS,
        DISPATCH,
        MODELS,
        POLICIES,
        QOS,
        SCENARIOS,
    )
    from .workloads import ALL_CASES

    lines = ["architectures:"]
    lines += [f"  {name}" for name in ARCHITECTURES.keys()]
    lines.append("models:")
    lines += [f"  {name}" for name in MODELS.keys()]
    lines.append("cases:")
    lines += [f"  {case.value}: {case.label}" for case in ALL_CASES]
    lines.append("scenarios:")
    lines += [f"  {name}" for name in SCENARIOS.keys()]
    lines.append("policies:")
    lines += [f"  {name}" for name in POLICIES.keys()]
    lines.append("dispatch policies:")
    lines += [f"  {name}" for name in DISPATCH.keys()]
    lines.append("queue disciplines:")
    lines += [f"  {name}" for name in QOS.keys()]
    lines.append("autoscalers:")
    lines += [f"  {name}" for name in AUTOSCALERS.keys()]
    return "\n".join(lines)


def _add_qos_config_args(parser) -> None:
    """The experiment-config flags shared by ``qos`` and ``submit``."""
    parser.add_argument("--devices", type=int, default=2,
                        help="initial fleet size (default: 2)")
    parser.add_argument("--max-devices", type=int, default=None,
                        help="autoscaler ceiling (default: --devices, i.e. "
                             "no growth)")
    parser.add_argument("--autoscaler", default="fixed",
                        help="capacity policy (fixed, threshold, queue_depth, "
                             "or a registered key)")
    parser.add_argument("--discipline", default="fifo",
                        help="queue discipline (fifo, priority, edf, or a "
                             "registered key)")
    parser.add_argument("--dispatch", default="round_robin",
                        help="dispatch policy splitting arrivals across "
                             "devices")
    parser.add_argument("--batch", type=int, default=1,
                        help="per-device batch size (requests served back to "
                             "back, completing together)")
    parser.add_argument("--slo", type=float, default=2.0,
                        help="latency SLO target in time slices (default: "
                             "the paper's 2T staging bound)")
    parser.add_argument("--arch", default="HH-PIM")
    parser.add_argument("--model", default="EfficientNet-B0")
    parser.add_argument("--scenario", default="bursty",
                        help="any registered scenario key (case1..case6, "
                             "poisson, bursty, diurnal, ...)")
    parser.add_argument("--peak", type=int, default=10,
                        help="scenario peak load per slice")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--slices", type=int, default=50)
    parser.add_argument("--blocks", type=int, default=48)
    parser.add_argument("--steps", type=int, default=6000)
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent on-disk LUT cache")


def _add_client_args(parser) -> None:
    """The daemon-address flags shared by the serve client verbs."""
    from .service.protocol import DEFAULT_HOST, DEFAULT_PORT

    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"daemon address (default: {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"daemon TCP port (default: {DEFAULT_PORT})")


def _add_resolution_args(parser, blocks: int, steps: int) -> None:
    parser.add_argument("--slices", type=int, default=50)
    parser.add_argument("--blocks", type=int, default=blocks)
    parser.add_argument("--steps", type=int, default=steps)
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width for batched runs")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the persistent on-disk LUT cache")


def _add_trace_arg(parser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record spans and write the trace to FILE on "
                             "exit (Chrome trace JSON for Perfetto, or a "
                             "raw span dump for a .jsonl path)")


def _version() -> str:
    """The installed distribution version, or the source-tree fallback."""
    from importlib import metadata

    try:
        return metadata.version("repro-hhpim")
    except metadata.PackageNotFoundError:
        from . import __version__

        return f"{__version__} (source tree)"


class _VersionAction(argparse.Action):
    """``--version`` that looks the version up only when it is given."""

    def __init__(self, option_strings, dest, **kwargs) -> None:
        super().__init__(
            option_strings, dest=argparse.SUPPRESS, default=argparse.SUPPRESS,
            nargs=0, help="show program's version number and exit",
        )

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {_version()}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    from .core.defaults import DEFAULT_BLOCK_COUNT, DEFAULT_TIME_STEPS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HH-PIM (DAC 2025) reproduction toolkit",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("table1", "table2", "table3", "table4", "table5", "list"):
        table = sub.add_parser(name)
        # Uniform resolution knobs: the analytic tables derive from the
        # technology model alone and ignore them, but scripts can pass
        # the same --blocks/--steps to every subcommand.
        table.add_argument("--blocks", type=int, default=DEFAULT_BLOCK_COUNT)
        table.add_argument("--steps", type=int, default=DEFAULT_TIME_STEPS)
    fig4 = sub.add_parser("fig4")
    fig4.add_argument("--slices", type=int, default=50)
    fig6 = sub.add_parser("fig6")
    fig6.add_argument("--model", default="EfficientNet-B0")
    fig6.add_argument("--blocks", type=int, default=DEFAULT_BLOCK_COUNT)
    fig6.add_argument("--steps", type=int, default=DEFAULT_TIME_STEPS)
    fig6.add_argument("--points", type=int, default=32)
    run = sub.add_parser("run", help="one scenario over selected architectures")
    run.add_argument("--model", default="EfficientNet-B0")
    run.add_argument("--case", type=int, default=3, choices=range(1, 7))
    run.add_argument("--arch", action="append", default=None,
                     help="architecture to run (repeatable; default: all)")
    run.add_argument("--json", action="store_true",
                     help="emit machine-readable per-run summaries")
    run.add_argument("--records", action="store_true",
                     help="with --json: include the full per-slice records")
    _add_resolution_args(run, blocks=48, steps=6000)
    _add_trace_arg(run)
    sweep = sub.add_parser(
        "sweep", help="grid over architectures x models x scenarios"
    )
    sweep.add_argument("--arch", action="append", default=None,
                       help="architecture axis (repeatable; default: all)")
    sweep.add_argument("--model", action="append", default=None,
                       help="model axis (repeatable; default: all)")
    sweep.add_argument("--case", action="append", type=int, default=None,
                       choices=range(1, 7),
                       help="scenario case axis (repeatable; default: all)")
    sweep.add_argument("--by", default="arch",
                       choices=("arch", "model", "scenario", "policy"),
                       help="aggregation axis for the summary table")
    sweep.add_argument("--json", action="store_true",
                       help="emit machine-readable per-run summaries")
    sweep.add_argument("--csv", metavar="FILE", default=None,
                       help="also write per-run rows to a CSV file")
    sweep.add_argument("--store", metavar="DIR", default=None,
                       help="persist every completed run into the "
                            "experiment store at DIR")
    sweep.add_argument("--shard", metavar="I/N", default=None,
                       help="run only the configs hash-assigned to shard "
                            "I of N (deterministic across processes)")
    sweep.add_argument("--resume", action="store_true",
                       help="with --store: serve already-stored configs "
                            "from the store instead of recomputing them")
    sweep.add_argument("--spill", action="store_true",
                       help="with --store: stream completed records to the "
                            "store instead of holding them all in memory "
                            "(bounded-RSS sweeps over huge grids)")
    sweep.add_argument("--chunk", type=int, default=None, metavar="N",
                       help="with --store --workers: configs per "
                            "work-stealing chunk (default: 8)")
    sweep.add_argument("--lease", type=float, default=None, metavar="S",
                       help="with --store --workers: seconds a chunk lease "
                            "lives without a heartbeat before another "
                            "worker may steal it (default: 30)")
    sweep.add_argument("--coordinator-port", type=int, default=0,
                       metavar="PORT",
                       help="with --store --workers: coordinator TCP port "
                            "(default: 0 = ephemeral; the bound port is "
                            "logged for repro sweep-worker --connect)")
    _add_resolution_args(sweep, blocks=48, steps=6000)
    _add_trace_arg(sweep)
    worker = sub.add_parser(
        "sweep-worker",
        help="attach one work-stealing worker to a running sweep "
             "coordinator (repro sweep --store DIR --workers N)",
    )
    worker.add_argument("--connect", metavar="HOST:PORT", required=True,
                        help="the coordinator's address (from its "
                             "event=listening log line)")
    worker.add_argument("--id", default=None, metavar="NAME",
                        help="worker identity in leases and telemetry "
                             "(default: w-<hostname>-<pid>)")
    worker.add_argument("--workers", type=int, default=None,
                        help="process-pool width for each chunk's batch")
    worker.add_argument("--json", action="store_true",
                        help="emit the final worker summary as JSON")
    fleet = sub.add_parser(
        "fleet", help="serve one scenario on a multi-device fleet"
    )
    fleet.add_argument("--devices", type=int, default=4,
                       help="fleet size (default: 4)")
    fleet.add_argument("--dispatch", default="round_robin",
                       help="dispatch policy (round_robin, least_loaded, "
                            "energy_aware, or a registered key)")
    fleet.add_argument("--arch", default="HH-PIM")
    fleet.add_argument("--model", default="EfficientNet-B0")
    fleet.add_argument("--scenario", default="case3",
                       help="any registered scenario key (case1..case6, "
                            "poisson, bursty, diurnal, ...)")
    fleet.add_argument("--peak", type=int, default=10,
                       help="scenario peak load per slice")
    fleet.add_argument("--json", action="store_true",
                       help="emit the machine-readable fleet summary")
    fleet.add_argument("--records", action="store_true",
                       help="with --json: include per-device slice records")
    # No --workers: the fleet shares one runtime, and its devices run
    # in-process (the vectorized slice loop, not LUT builds, dominates).
    fleet.add_argument("--slices", type=int, default=50)
    fleet.add_argument("--blocks", type=int, default=48)
    fleet.add_argument("--steps", type=int, default=6000)
    fleet.add_argument("--no-cache", action="store_true",
                       help="skip the persistent on-disk LUT cache")
    _add_trace_arg(fleet)
    qos = sub.add_parser(
        "qos", help="request-level QoS simulation: latency, SLOs, autoscaling"
    )
    _add_qos_config_args(qos)
    qos.add_argument("--json", action="store_true",
                     help="emit the machine-readable QoS summary")
    qos.add_argument("--records", action="store_true",
                     help="with --json: include per-device slice records")
    _add_trace_arg(qos)
    serve = sub.add_parser(
        "serve", help="resident serving daemon: warm engine behind a socket"
    )
    _add_client_args(serve)
    serve.add_argument("--workers", type=int, default=1,
                       help="job executor threads (default: 1; engine "
                            "access is serialized either way)")
    serve.add_argument("--store", metavar="DIR", default=None,
                       help="experiment store the daemon persists results "
                            "into (default: REPRO_STORE or the XDG cache)")
    serve.add_argument("--metrics-file", metavar="FILE", default=None,
                       help="append line-protocol metrics to FILE (a "
                            "Telegraf tail input can follow it)")
    serve.add_argument("--pidfile", metavar="FILE", default=None,
                       help="write the daemon pid to FILE while serving")
    _add_trace_arg(serve)
    submit = sub.add_parser(
        "submit", help="submit one experiment to a running serve daemon"
    )
    _add_client_args(submit)
    submit.add_argument("--kind", default="qos",
                        choices=("run", "fleet", "qos"),
                        help="execution path for the job (default: qos)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id immediately instead of "
                             "waiting for the result")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="seconds to wait for the result (default: 300)")
    _add_qos_config_args(submit)
    submit.add_argument("--json", action="store_true",
                        help="print the full result payload as JSON")
    submit.add_argument("--records", action="store_true",
                        help="include per-device records in the result")
    status = sub.add_parser(
        "status", help="inspect a running serve daemon (or one job)"
    )
    _add_client_args(status)
    status.add_argument("--job", metavar="ID", default=None,
                        help="show one job instead of the daemon summary")
    status.add_argument("--metrics", action="store_true",
                        help="print the metrics registry as InfluxDB line "
                             "protocol instead of the summary")
    status.add_argument("--json", action="store_true",
                        help="print the raw STATUS reply as JSON")
    shutdown = sub.add_parser(
        "shutdown", help="drain a running serve daemon and stop it"
    )
    _add_client_args(shutdown)
    shutdown.add_argument("--drain", action="store_true",
                          help="drain only: finish queued jobs and refuse "
                               "new ones, but keep the daemon up")
    shutdown.add_argument("--timeout", type=float, default=300.0,
                          help="seconds to wait for the drain (default: 300)")
    scenarios = sub.add_parser(
        "scenarios", help="preview registered workload scenarios"
    )
    scenarios.add_argument("--only", default=None,
                           help="preview a single scenario key")
    scenarios.add_argument("--slices", type=int, default=50)
    scenarios.add_argument("--peak", type=int, default=10)
    scenarios.add_argument("--low", type=int, default=2)
    scenarios.add_argument("--seed", type=int, default=2025)
    bench = sub.add_parser(
        "bench", help="perf harness: time every section, write BENCH_*.json"
    )
    bench.add_argument("--quick", action="store_true",
                       help="CI-sized run: fewer repeats, smaller sweep grid")
    bench.add_argument("--model", default="EfficientNet-B0")
    bench.add_argument("--blocks", type=int, default=DEFAULT_BLOCK_COUNT)
    bench.add_argument("--steps", type=int, default=DEFAULT_TIME_STEPS)
    bench.add_argument("--repeats", type=int, default=None,
                       help="best-of repetitions per timing (default 3, 1 "
                            "with --quick)")
    bench.add_argument("--out", default=".",
                       help="directory for the BENCH_*.json artifacts")
    bench.add_argument("--gate", action="store_true",
                       help="fail (exit 2) if any section misses one of "
                            "its gate thresholds (repro.perf.SECTIONS, "
                            "listed in docs/PERF.md)")
    bench.add_argument("--json", action="store_true",
                       help="print the full machine-readable report")
    trend = sub.add_parser(
        "trend", help="compare bench artifacts against committed baselines"
    )
    trend.add_argument("--baseline", metavar="DIR", default=".",
                       help="directory holding the committed BENCH_*.json "
                            "baselines (default: the repo root)")
    trend.add_argument("--current", metavar="DIR", required=True,
                       help="directory holding the fresh bench artifacts "
                            "(a `repro bench --out DIR` run)")
    trend.add_argument("--tolerance", type=float, default=0.30,
                       help="fractional slack before a lower headline "
                            "metric fails the trend (default: 0.30)")
    trend.add_argument("--summary", metavar="FILE", default=None,
                       help="also write the markdown delta table to FILE "
                            "(point it at $GITHUB_STEP_SUMMARY in CI)")
    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent LUT cache"
    )
    cache.add_argument("action", choices=("info", "clear"))
    store = sub.add_parser(
        "store", help="inspect or clear the persistent experiment store"
    )
    store.add_argument("action", choices=("info", "ls", "clear"))
    store.add_argument("--store", metavar="DIR", default=None,
                       help="store directory (default: REPRO_STORE or the "
                            "XDG cache)")
    store.add_argument("--by", default="arch",
                       choices=("arch", "model", "scenario", "policy",
                                "dispatch"),
                       help="aggregation axis for the ls summary table")
    store.add_argument("--kind", default=None,
                       choices=("run", "fleet", "qos", "fuzz"),
                       help="list only one record kind (qos renders the "
                            "stored QoS summary rows; fuzz the persisted "
                            "regression scenarios)")
    store.add_argument("--limit", type=int, default=None, metavar="N",
                       help="list at most N entries of the sorted order")
    docs = sub.add_parser(
        "docs", help="regenerate docs/REGISTRY.md from the live registries"
    )
    docs.add_argument("--out", metavar="FILE", default="docs/REGISTRY.md",
                      help="where the generated reference lives")
    docs.add_argument("--check", action="store_true",
                      help="exit 2 instead of writing when the reference is "
                           "stale or a public docstring is missing")
    profile = sub.add_parser(
        "profile", help="fold a --trace file into a per-phase time table"
    )
    profile.add_argument("file", metavar="FILE",
                         help="a trace written by --trace (Chrome trace "
                              "JSON or a .jsonl span dump)")
    fuzz = sub.add_parser(
        "fuzz", help="fuzz the engine with seeded scenario programs and "
                     "check conformance invariants"
    )
    fuzz.add_argument("--seed", type=int, default=0, metavar="N",
                      help="batch seed: same seed, same cases, same report "
                           "(default: 0)")
    fuzz.add_argument("--cases", type=int, default=25, metavar="K",
                      help="number of fuzz cases to generate (default: 25)")
    fuzz.add_argument("--replay", action="store_true",
                      help="re-check the store's persisted fuzz regressions "
                           "instead of generating new cases")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the full machine-readable report")
    fuzz.add_argument("--store", metavar="DIR", default=None,
                      help="experiment store for persisting/replaying "
                           "failures (default: REPRO_STORE or the XDG "
                           "cache)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip greedy minimization of failing cases")
    return parser


_HANDLERS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "fig4": _cmd_fig4,
    "fig6": _cmd_fig6,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "sweep-worker": _cmd_sweep_worker,
    "fleet": _cmd_fleet,
    "qos": _cmd_qos,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "shutdown": _cmd_shutdown,
    "scenarios": _cmd_scenarios,
    "bench": _cmd_bench,
    "trend": _cmd_trend,
    "cache": _cmd_cache,
    "store": _cmd_store,
    "docs": _cmd_docs,
    "list": _cmd_list,
    "profile": _cmd_profile,
    "fuzz": _cmd_fuzz,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # `repro serve --trace` hands the file to the daemon (which owns its
    # tracer lifecycle); every other --trace command records here.
    trace_path = getattr(args, "trace", None)
    tracer = None
    if trace_path is not None and args.command != "serve":
        from .obs import tracing as obs_tracing

        tracer = obs_tracing.activate(proc="main")
    try:
        print(_HANDLERS[args.command](args))
    except KeyboardInterrupt:
        # Ctrl-C is a deliberate stop, not an error: the conventional
        # 128+SIGINT exit, one line, no traceback.  (`repro serve`
        # installs its own SIGINT handler for a clean drain; this
        # covers every other command.)
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as error:
        # Library failures (bad configs, infeasible placements, unknown
        # registry keys) are user errors: one line, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            from .obs import tracing as obs_tracing

            obs_tracing.deactivate()
            tracer.trace().write(trace_path)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
