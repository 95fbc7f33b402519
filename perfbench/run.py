"""End-to-end benchmark of the ``repro`` user commands, split by layer.

Run from the root of a source checkout (there is no build step: the
commands import the package from ``src/``)::

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 25 --trace 0

Each timed operation is one real CLI command in a fresh process, timed
from spawn to exit.  Commands run as a closed loop, one at a time, for
``--seconds`` seconds (at least three commands):

``cold_sweep``
    The full paper grid (4 architectures x 3 models x 6 cases = 72
    runs) with ``repro sweep --json`` on an empty LUT cache, so every
    DP build is paid.  The seed orders the axis flags.
``qos_default``
    The default ``repro qos`` (the command the project roadmap names),
    with the seed's ``--seed`` among four request seeds, on a warm LUT
    cache.  Its text report is what is checked.
``daemon_submit``
    ``repro submit --scenario bursty --seed S --json`` round trips to
    one resident ``repro serve --store DIR`` daemon, the commands
    docs/SERVING.md shows, cycling through four request seeds drawn
    from the seed.  The daemon starts with an empty LUT cache and
    store: the first cycle builds the LUT and simulates each job, later
    cycles are answered from the daemon's experiment store.
``dist_sweep``
    The ``cold_sweep`` grid with ``repro sweep --json --store DIR
    --workers 2``: a coordinator and two worker processes, with a fresh
    store and an empty LUT cache each time.

Correctness: each benchmark run first runs every distinct command once
under the scalar reference implementations (``REPRO_SCALAR_RUNTIME=1``,
``REPRO_SCALAR_QOS=1``) with a LUT cache of their own.  A timed command whose
parsed output differs from that reference, or that exits non-zero or
times out, counts as failed.

Normalisation: the host this runs on is shared, and its speed drifts by
tens of percent over seconds to minutes.  So a fixed calibration process
(``perfbench/calibrate.py``, independent of the repository) runs just
before every command and every set-up, and once after the last command,
as many copies side by side as the command runs processes (two for
``daemon_submit`` and ``dist_sweep``).  Each time is scaled by ``CALIBRATION_WALL_S`` (or
``CALIBRATION_CPU_S``) over the calibration's own mean wall (or mean
CPU) time per copy, for a command the mean of the three calibrations
before it and the three after it (fewer at the ends of the run): the
time the command would take on a machine where the calibration takes
its nominal time.

``--trace 0`` reports the end-to-end metrics: ``wall_ms``, the
interquartile mean (mean of the middle half) of the normalised
per-command wall times, and ``setup_s``, the median of three normalised
set-ups.  The interquartile mean ignores a stray slow command as a
median does, but averages half the samples, which matters for the
eight or so commands of a ``dist_sweep`` run.  A set-up is: fresh
directories and one ``repro --version`` process (the sweeps); filling
the LUT cache with one ``repro qos`` (``qos_default``); starting
``repro serve`` until it listens (``daemon_submit``).

``--trace 1`` runs each command through ``perfbench/launch.py`` with
the program's own ``--trace`` (the daemon's, for ``daemon_submit``)
and reports ``traced_wall_ms`` and ``cpu_ms`` (aggregated like
``wall_ms``; CPU counts the command's processes and, for
``daemon_submit``, the daemon's CPU beyond an idle start and stop),
then the mean per command of: interpreter start, imports, DP/LUT build
(a LUT-cache miss, the cache write included), LUT-cache loads (a hit),
store reads and writes, simulation (slice runtime and QoS windows), the
rest of the command outside those layers (argument parsing,
orchestration, wire waits, rendering and export) and process exit, all
normalised as above; and counts of the work the layers did.  Span self
times come from the program's own trace reader and fold
(``repro.obs.tracing.Trace``, ``repro.obs.profile.fold``).  Interpreter
start, imports and exit are the command's own process; the span layers
are summed over every process (workers and daemon included), so they
may exceed the wall.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
live under ``.perfbench-work/`` in the checkout and are removed on
exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
CALIBRATION = HERE / "calibrate.py"
#: Wall and CPU seconds of ``calibrate.py`` on an idle two-vCPU Xeon VM:
#: the scale of the normalised times.
CALIBRATION_WALL_S = 0.22
CALIBRATION_CPU_S = 0.35
#: Calibrations on each side of a command that normalise its time.
CALIBRATION_WINDOW = 3
SETUP_REPEATS = 3
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 30.0
#: Knobs that would swap in reference or test-only code paths.
CLEARED_ENV = (
    "REPRO_SCALAR_DP",
    "REPRO_SCALAR_RUNTIME",
    "REPRO_SCALAR_QOS",
    "REPRO_FUZZ_TEST_BREAK",
    "REPRO_DIST_TEST_STALL_S",
    "REPRO_DIST_RUN_STALL_S",
)
REFERENCE_ENV = {"REPRO_SCALAR_RUNTIME": "1", "REPRO_SCALAR_QOS": "1"}

ARCHS = ("Baseline-PIM", "Heterogeneous-PIM", "Hybrid-PIM", "HH-PIM")
MODELS = ("EfficientNet-B0", "MobileNetV2", "ResNet-18")
CASES = ("1", "2", "3", "4", "5", "6")
#: Request seeds a ``qos_default`` or ``daemon_submit`` run cycles through.
REQUEST_SEEDS = 4

#: Per-layer metrics: name -> unit.  Times are ms per command; counts
#: are per command.  ``traced_wall_ms`` and ``cpu_ms`` are the traced
#: run's whole-command figures, aggregated like ``wall_ms``.
LAYER_METRICS = {
    "traced_wall_ms": "ms",
    "cpu_ms": "ms",
    "interp_ms": "ms",
    "import_ms": "ms",
    "lut_build_ms": "ms",
    "lut_load_ms": "ms",
    "store_ms": "ms",
    "sim_ms": "ms",
    "other_ms": "ms",
    "exit_ms": "ms",
    "dp_builds": "count",
    "lut_disk_hits": "count",
    "store_ops": "count",
    "qos_windows": "count",
    "spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot run: missing sources or a failed set-up."""


def layer_of(span) -> str | None:
    """The layer a program span's self time belongs to, if any."""
    name = span.name
    if name == "lutcache.fetch_or_build":
        # On a hit its self time is the load; on a miss it is the LUT
        # evaluation around the DP and the cache write.
        if span.args.get("source") == "disk":
            return "lut_load"
        return "lut_build"
    if name in ("core.dp_build", "engine.materialize_runtime"):
        return "lut_build"
    if name.startswith("store."):
        return "store"
    if name in ("engine.run", "engine.qos") or name.startswith("qos."):
        return "sim"
    return None


def fold_layers(path: Path) -> tuple:
    """A program trace file's spans, and its layer self times.

    Reads the file with the program's own ``Trace.from_file`` and folds
    it with ``repro.obs.profile.fold`` (self time = wall minus direct
    children), each span renamed to its layer first.  Returns ``(spans,
    {(layer, in_main): self_ns})``, ``in_main`` telling the command's
    own process from workers.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.profile import fold
    from repro.obs.tracing import Trace

    spans = Trace.from_file(path).spans
    keys: dict = {}
    by_layer = []
    for span in spans:
        key = (layer_of(span), span.proc == "main")
        keys[repr(key)] = key
        by_layer.append(dataclasses.replace(span, name=repr(key)))
    self_ns = {
        keys[stats.name]: stats.self_ns
        for stats in fold(Trace(by_layer))
        if keys[stats.name][0] is not None
    }
    return spans, self_ns


@dataclasses.dataclass
class Outcome:
    """One finished command."""

    code: int | None  # None: killed after the timeout
    stdout: str
    stderr: str
    wall_ns: int
    cpu_s: float
    spawn_ns: int
    end_ns: int


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a command started in its own session, children included."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Bench:
    """Environment, scratch space and accounting for one benchmark run."""

    def __init__(self, work: Path, trace: bool) -> None:
        self.work = work
        self.trace = trace
        env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        env["REPRO_LUT_CACHE"] = str(work / "lut")
        env["REPRO_STORE"] = str(work / "store")
        # Placement-transition pricing sums over a set, so the last bit of
        # some energies depends on string hashing: pin it, or no two
        # processes would be comparable.
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.layer_ns: Counter = Counter()
        self.counts: Counter = Counter()

    def fresh(self, *names: str) -> None:
        """Empty (or create) scratch directories."""
        for name in names:
            path = self.work / name
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)

    def repro(self, args, env=None, times: Path | None = None) -> Outcome:
        """Run one ``repro`` command to completion and time it.

        With ``times``, the command runs under the launcher, which
        writes its phase timestamps there.
        """
        if times is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(LAUNCHER), str(times), *args]
        return self.run(argv, env)

    def calibrate(self, copies: int = 1) -> tuple:
        """Run ``copies`` calibration processes at once, which time the
        machine; returns their mean wall and mean CPU seconds.

        Each copy's wall ends when that copy exits: the mean of the
        copies scatters less than the wall of the slowest.
        """
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start_ns = time.monotonic_ns()
        procs = [
            subprocess.Popen(
                [sys.executable, str(CALIBRATION)],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for _ in range(copies)
        ]

        def reap(proc: subprocess.Popen) -> int:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
            return time.monotonic_ns()

        try:
            with ThreadPoolExecutor(max_workers=copies) as pool:
                ends = list(pool.map(reap, procs))
        except subprocess.TimeoutExpired:
            ends = []
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        codes = [proc.returncode for proc in procs]
        if not ends or any(code != 0 for code in codes):
            raise BenchError(f"calibration process failed: {codes}")
        wall_s = statistics.mean(end - start_ns for end in ends) / 1e9
        cpu_s = (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )
        return wall_s, cpu_s / copies

    def run(self, argv, env=None) -> Outcome:
        """Run one process (in its own session) to completion and time it."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env={**self.env, **(env or {})},
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            kill_group(proc)
            out, err = proc.communicate()
            code = None
        end_ns = time.monotonic_ns()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )
        return Outcome(
            code, out, err, end_ns - spawn_ns, cpu_s, spawn_ns, end_ns
        )

    def references(self, arg_lists) -> list:
        """The output of each command under the scalar references.

        The references build their LUTs into a cache of their own: the
        commands under test use the LUT cache, and ``--no-cache`` is not
        bit-neutral (QoS ``movement_energy_nj`` can move by one ulp).
        """
        self.fresh("ref-lut")
        env = {**REFERENCE_ENV, "REPRO_LUT_CACHE": str(self.work / "ref-lut")}
        args = [list(a) for a in arg_lists]
        with ThreadPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(lambda a: self.repro(a, env=env), args))
        for a, outcome in zip(args, outcomes):
            if outcome.code != 0:
                raise BenchError(
                    f"reference run of repro {' '.join(a)} failed "
                    f"(exit {outcome.code}): {outcome.stderr[-2000:]}"
                )
        return [outcome.stdout for outcome in outcomes]

    def account_launch(self, outcome: Outcome, times: Path) -> tuple:
        """A launched command's process phases in ns, and the ns it spent
        in the command itself (after imports)."""
        with open(times, encoding="utf-8") as handle:
            stamps = json.load(handle)
        phases = Counter({
            "interp_ms": stamps["entry_ns"] - outcome.spawn_ns,
            "import_ms": stamps["imported_ns"] - stamps["entry_ns"],
            "exit_ms": outcome.end_ns - stamps["done_ns"],
        })
        return phases, stamps["done_ns"] - stamps["imported_ns"]

    def account_trace(self, path: Path) -> tuple:
        """Count a program trace's spans; its layer self times in ns.

        Also returns the part of those self times spent in the ``main``
        process (the command itself), which is not ``other_ms``.
        """
        spans, self_ns = fold_layers(path)
        for span in spans:
            self.counts["spans"] += 1
            if span.name == "core.dp_build":
                self.counts["dp_builds"] += 1
            elif span.name.startswith("lutcache.") and (
                span.args.get("source") == "disk"
            ):
                self.counts["lut_disk_hits"] += 1
            elif span.name.startswith("store."):
                self.counts["store_ops"] += 1
            elif span.name == "qos.window":
                self.counts["qos_windows"] += 1
        layers: Counter = Counter()
        in_main = 0
        for (layer, main), ns in self_ns.items():
            layers[f"{layer}_ms"] += ns
            if main:
                in_main += ns
        return layers, in_main

    def add_layers(self, layers: Counter, scale: float) -> None:
        """Add layer times in ns, normalised by ``scale``."""
        for name, ns in layers.items():
            self.layer_ns[name] += ns * scale


def rows_by_run(rows) -> dict:
    """Sweep JSON rows keyed by their grid point."""
    return {(r["arch"], r["model"], r["scenario"]): r for r in rows}


class Workload:
    """One kind of user command, timed in a loop."""

    #: Whether the command accepts the program's ``--trace FILE``.
    traced = True
    #: Processes a command runs on: the calibration runs as many copies
    #: side by side, so both meet the same contention for the cores.
    parallel = 1

    def __init__(self, bench: Bench, rng: random.Random) -> None:
        self.bench = bench
        self.rng = rng

    def prepare(self) -> None:
        """Untimed: compute the reference outputs."""

    def setup(self, last: bool) -> None:
        """One timed set-up; ``last`` is the one the commands then use."""

    def undo_setup(self) -> None:
        """Untimed: release an earlier set-up before the next one."""

    def before(self, index: int) -> None:
        """Untimed preparation before command ``index``."""

    def command(self, index: int) -> list:
        """The ``repro`` arguments of command ``index``."""
        raise NotImplementedError

    def check(self, index: int, stdout: str) -> bool:
        """Whether command ``index`` printed the reference output."""
        raise NotImplementedError

    def close(self, scale: float) -> float:
        """Stop what set-up started; returns extra CPU seconds to charge.

        ``scale`` normalises time the workload accounts at this point.
        """
        return 0.0

    def abort(self) -> None:
        """Kill whatever set-up left running after a failure."""


class ColdSweep(Workload):
    """The full paper grid on an empty LUT cache, one process."""

    def __init__(self, bench, rng) -> None:
        super().__init__(bench, rng)
        axes = []
        for flag, values in (
            ("--arch", ARCHS), ("--model", MODELS), ("--case", CASES)
        ):
            values = list(values)
            rng.shuffle(values)
            axes += [arg for value in values for arg in (flag, value)]
        self.axes = axes
        self.expected: dict = {}

    def prepare(self) -> None:
        (output,) = self.bench.references([["sweep", "--json", *self.axes]])
        rows = json.loads(output)
        self.expected = rows_by_run(rows)
        if len(self.expected) != len(ARCHS) * len(MODELS) * len(CASES):
            raise BenchError(f"reference sweep has {len(rows)} rows")

    def setup(self, last: bool) -> None:
        self.bench.fresh("lut", "store")
        outcome = self.bench.repro(["--version"])
        if outcome.code != 0:
            raise BenchError(f"repro --version failed: {outcome.stderr}")

    def before(self, index: int) -> None:
        self.bench.fresh("lut")

    def command(self, index: int) -> list:
        return ["sweep", "--json", *self.axes]

    def check(self, index: int, stdout: str) -> bool:
        rows = json.loads(stdout)
        return len(rows) == len(self.expected) and (
            rows_by_run(rows) == self.expected
        )


class DistSweep(ColdSweep):
    """The paper grid through a coordinator and two worker processes."""

    parallel = 2

    def before(self, index: int) -> None:
        self.bench.fresh("lut", "store")

    def command(self, index: int) -> list:
        return [
            "sweep", "--json", "--store", str(self.bench.work / "store"),
            "--workers", "2", *self.axes,
        ]


class QosDefault(Workload):
    """The default ``repro qos``, LUT cache warm."""

    def __init__(self, bench, rng) -> None:
        super().__init__(bench, rng)
        self.seeds = [str(rng.randrange(2**31)) for _ in range(REQUEST_SEEDS)]
        self.expected: list = []

    def prepare(self) -> None:
        self.expected = self.bench.references(
            [self.command(index) for index in range(REQUEST_SEEDS)]
        )

    def setup(self, last: bool) -> None:
        self.bench.fresh("lut", "store")
        outcome = self.bench.repro(self.command(0))
        if outcome.code != 0 or not self.check(0, outcome.stdout):
            raise BenchError(f"LUT cache fill failed: {outcome.stderr}")

    def command(self, index: int) -> list:
        return ["qos", "--seed", self.seeds[index % REQUEST_SEEDS]]

    def check(self, index: int, stdout: str) -> bool:
        return stdout == self.expected[index % REQUEST_SEEDS]


class DaemonSubmit(Workload):
    """``repro submit`` round trips to one resident daemon."""

    traced = False
    # A request runs in two processes, the client and the daemon.  When
    # the host slows down its wall grows more than one calibration copy's;
    # two copies follow it more closely.
    parallel = 2
    LISTENING = re.compile(r"event=listening .*\bport=(\d+)")
    JOB = ("--scenario", "bursty")

    def __init__(self, bench, rng) -> None:
        super().__init__(bench, rng)
        self.seeds = [str(rng.randrange(2**31)) for _ in range(REQUEST_SEEDS)]
        self.order: list = []
        self.expected: list = []
        self.daemon: subprocess.Popen | None = None
        self.port = 0
        self.idle_cpu: list = []

    def prepare(self) -> None:
        outputs = self.bench.references(
            [["qos", *self.JOB, "--seed", seed, "--json"] for seed in self.seeds]
        )
        self.expected = [json.loads(output) for output in outputs]

    def _seed(self, index: int) -> int:
        while len(self.order) <= index:
            cycle = list(range(REQUEST_SEEDS))
            self.rng.shuffle(cycle)
            self.order += cycle
        return self.order[index]

    def setup(self, last: bool) -> None:
        self.bench.fresh("lut", "store")
        log = self.bench.work / "daemon.log"
        args = ["serve", "--port", "0", "--store",
                str(self.bench.work / "store")]
        if last and self.bench.trace:
            args += ["--trace", str(self.bench.work / "daemon-trace.json")]
        with open(log, "w", encoding="utf-8") as sink:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                cwd=ROOT,
                env=self.bench.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=sink,
                start_new_session=True,
            )
        deadline = time.monotonic() + COMMAND_TIMEOUT_S
        while True:
            match = self.LISTENING.search(log.read_text(encoding="utf-8"))
            if match:
                self.port = int(match.group(1))
                break
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                raise BenchError(
                    f"repro serve did not start: {log.read_text()[-2000:]}"
                )
            time.sleep(0.002)

    def undo_setup(self) -> None:
        self.idle_cpu.append(self._stop())

    def _stop(self) -> float:
        """SIGTERM the daemon (it drains), reap it; its CPU seconds."""
        proc, self.daemon = self.daemon, None
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + COMMAND_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                kill_group(proc)
                pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError("repro serve did not stop on SIGTERM")
            time.sleep(0.005)
        if proc.returncode != 0:
            raise BenchError(f"repro serve exited {proc.returncode}")
        return usage.ru_utime + usage.ru_stime

    def command(self, index: int) -> list:
        return [
            "submit", "--port", str(self.port), *self.JOB,
            "--seed", self.seeds[self._seed(index)], "--json",
        ]

    def check(self, index: int, stdout: str) -> bool:
        payload = json.loads(stdout)
        return payload["kind"] == "qos" and (
            payload["result"] == self.expected[self._seed(index)]
        )

    def close(self, scale: float) -> float:
        if self.daemon is None:
            return 0.0
        busy = self._stop() - statistics.median(self.idle_cpu or [0.0])
        if self.bench.trace:
            layers, _ = self.bench.account_trace(
                self.bench.work / "daemon-trace.json"
            )
            self.bench.add_layers(layers, scale)
        return max(0.0, busy)

    def abort(self) -> None:
        """Kill a daemon left running by a failure."""
        if self.daemon is not None:
            kill_group(self.daemon)
            self.daemon.wait()
            self.daemon = None


WORKLOADS = {
    "cold_sweep": ColdSweep,
    "qos_default": QosDefault,
    "daemon_submit": DaemonSubmit,
    "dist_sweep": DistSweep,
}


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values`` (all of them below four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def measure(workload: Workload, bench: Bench, seconds: float) -> dict:
    """Run the set-ups and the timed command loop; the result object."""
    workload.prepare()
    setups = []
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        cal_wall_s, _ = bench.calibrate()
        start = time.monotonic_ns()
        workload.setup(last)
        setup_s = (time.monotonic_ns() - start) / 1e9
        setups.append(setup_s / cal_wall_s * CALIBRATION_WALL_S)
        if not last:
            workload.undo_setup()

    # (command wall s, command CPU s, calibration wall s, calibration CPU s)
    # with the calibration taken just before the command.
    samples, failed, command_layers = [], 0, []
    deadline = time.monotonic() + seconds
    while len(samples) < MIN_COMMANDS or time.monotonic() < deadline:
        index = len(samples)
        workload.before(index)
        cal_wall_s, cal_cpu_s = bench.calibrate(workload.parallel)
        args = workload.command(index)
        times = trace = None
        if bench.trace:
            times = bench.work / "times.json"
            times.unlink(missing_ok=True)
            if workload.traced:
                trace = bench.work / "trace.json"
                trace.unlink(missing_ok=True)
                args = [*args, "--trace", str(trace)]
        outcome = bench.repro(args, times=times)
        ok = outcome.code == 0
        if ok:
            try:
                ok = workload.check(index, outcome.stdout)
            except (ValueError, KeyError, TypeError):
                ok = False
        if not ok:
            failed += 1
            print(
                f"command {index} failed (exit {outcome.code}): repro "
                f"{' '.join(args)}\n{outcome.stderr[-2000:]}",
                file=sys.stderr,
            )
        elif bench.trace:
            layers, other_ns = bench.account_launch(outcome, times)
            if trace:
                span_layers, in_spans = bench.account_trace(trace)
                layers.update(span_layers)
                other_ns -= in_spans
            layers["other_ms"] += other_ns
            command_layers.append((index, layers))
        samples.append(
            (outcome.wall_ns / 1e9, outcome.cpu_s, cal_wall_s, cal_cpu_s)
        )
    attempted = len(samples)
    # cals[i] ran just before command i; the last one after the last
    # command.  One calibration is short, so the host's scheduling
    # scatters it by about 15%: a command is normalised by the mean of
    # the CALIBRATION_WINDOW calibrations on each side of it, which
    # follows the host's drift over seconds without most of that scatter.
    end_cal = bench.calibrate(workload.parallel)
    cals = [sample[2:] for sample in samples] + [end_cal]
    reach = CALIBRATION_WINDOW
    windows = [
        cals[max(0, index + 1 - reach):index + 1 + reach]
        for index in range(attempted)
    ]
    cal_walls = [statistics.mean(c[0] for c in window) for window in windows]
    cal_cpus = [statistics.mean(c[1] for c in window) for window in windows]
    median_cal_s = statistics.median(cal_walls)
    # The daemon's CPU for the jobs, shared evenly over the commands.
    extra_cpu_s = workload.close(CALIBRATION_WALL_S / median_cal_s) / attempted
    for index, layers in command_layers:
        bench.add_layers(layers, CALIBRATION_WALL_S / cal_walls[index])

    wall_ms = 1e3 * interquartile_mean(
        sample[0] / cal * CALIBRATION_WALL_S
        for sample, cal in zip(samples, cal_walls)
    )
    cpu_ms = 1e3 * interquartile_mean(
        (sample[1] + extra_cpu_s) / cal * CALIBRATION_CPU_S
        for sample, cal in zip(samples, cal_cpus)
    )
    print(
        f"{attempted} commands ({failed} failed), median wall "
        f"{statistics.median(s[0] for s in samples) * 1e3:.1f} ms, median "
        f"calibration {median_cal_s * 1e3:.1f} ms; normalised: wall "
        f"{wall_ms:.1f} ms, cpu {cpu_ms:.1f} ms, setups "
        + ", ".join(f"{s:.3f}" for s in setups) + " s"
    )
    print(
        "samples (wall s, cpu s, calibration wall s, calibration cpu s; "
        "the last calibration follows the last command): "
        + json.dumps(
            [[round(x, 6) for x in sample] for sample in samples]
            + [[round(x, 6) for x in end_cal]]
        )
    )
    if bench.trace:
        ok_runs = max(1, attempted - failed)
        values = {"traced_wall_ms": wall_ms, "cpu_ms": cpu_ms}
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            if name not in values:
                total = (
                    bench.layer_ns[name] / 1e6
                    if unit == "ms"
                    else bench.counts[name]
                )
                values[name] = total / ok_runs
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:14s} {values[name]:12.4f} {unit}")
    else:
        metrics = {
            "wall_ms": {"value": wall_ms, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(work, trace=bool(args.trace))
    workload = WORKLOADS[args.workload](bench, random.Random(args.seed))
    try:
        bench.fresh("lut", "store")
        result = measure(workload, bench, args.seconds)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        workload.abort()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
