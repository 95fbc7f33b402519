"""Tests for the observability substrate (``repro.obs``).

Covers the span tracer (deterministic ids, nesting, epoch alignment,
retroactive recording, drain/ingest for the wire), both trace export
formats and their round-trips, the subtree extractor, the phase
profiler fold/render, the typed event log, and — the load-bearing
property — that an active tracer observes without perturbing results.
"""

import itertools
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, ExperimentConfig
from repro.obs import events as obs_events
from repro.obs import profile as obs_profile
from repro.obs import tracing as obs_tracing
from repro.obs.tracing import Span, Trace, Tracer, subtree

TINY = dict(block_count=16, time_steps=1500)


class StepClock:
    """A fake monotonic clock advancing a fixed step per reading."""

    def __init__(self, step=1000):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def two_span_tracer():
    """A tracer with one nested pair recorded under the step clock.

    Clock readings: base=1000, enter a=2000, enter b=3000, exit b=4000,
    exit a=5000; with ``epoch_ns=0`` the offset is -1000, so span ``a``
    covers [1000, 4000) and ``b`` covers [2000, 3000).
    """
    tracer = Tracer(proc="main", clock=StepClock(), epoch_ns=0)
    with tracer.span("a", label="x"):
        with tracer.span("b"):
            pass
    return tracer


class TestTracer:
    def test_deterministic_ids_and_nesting(self):
        tracer = two_span_tracer()
        by_id = {s.id: s for s in tracer.spans}
        assert set(by_id) == {"main/1", "main/2"}
        a, b = by_id["main/1"], by_id["main/2"]
        assert (a.name, a.parent) == ("a", None)
        assert (b.name, b.parent) == ("b", "main/1")
        # Children close first: the buffer order is b, a.
        assert [s.name for s in tracer.spans] == ["b", "a"]

    def test_epoch_alignment_and_durations(self):
        by_name = {s.name: s for s in two_span_tracer().spans}
        a, b = by_name["a"], by_name["b"]
        assert (a.start_ns, a.dur_ns) == (1000, 3000)
        assert (b.start_ns, b.dur_ns) == (2000, 1000)

    def test_args_and_annotate(self):
        tracer = Tracer(proc="main", clock=StepClock(), epoch_ns=0)
        with tracer.span("a", label="x") as live:
            live.annotate(hit=True)
        assert tracer.spans[0].args == {"label": "x", "hit": True}

    def test_duration_clamped_nonnegative(self):
        readings = iter([10, 20, 15])
        tracer = Tracer(proc="main", clock=lambda: next(readings),
                        epoch_ns=0)
        with tracer.span("a"):
            pass
        assert tracer.spans[0].dur_ns == 0

    def test_thread_indices_in_order_of_first_appearance(self):
        tracer = Tracer(proc="main", epoch_ns=0)
        with tracer.span("main-thread"):
            pass

        def other():
            with tracer.span("other-thread"):
                pass

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        threads = {s.name: s.thread for s in tracer.spans}
        assert threads == {"main-thread": 0, "other-thread": 1}

    def test_record_retroactive_span(self):
        tracer = Tracer(proc="w", clock=StepClock(), epoch_ns=0)
        # Raw clock readings, aligned by the tracer's offset (-1000).
        span = tracer.record("claim", 6000, 6500, granted=True)
        assert (span.start_ns, span.dur_ns) == (5000, 500)
        assert span.parent is None
        assert span.args == {"granted": True}
        assert span.id == "w/1"
        assert tracer.spans[-1] is span

    def test_record_parents_onto_open_span(self):
        tracer = Tracer(proc="w", clock=StepClock(), epoch_ns=0)
        with tracer.span("outer") as outer:
            inner = tracer.record("claim", 100, 90)
        assert inner.parent == outer.id
        assert inner.dur_ns == 0  # end before start clamps to zero

    def test_drain_empties_buffer_but_keeps_counters(self):
        tracer = two_span_tracer()
        shipped = tracer.drain()
        assert [r["name"] for r in shipped] == ["b", "a"]
        assert tracer.spans == []
        assert tracer.spans_recorded == 2
        assert tracer.drain() == []
        with tracer.span("c"):
            pass
        assert tracer.spans[0].id == "main/3"  # counter kept going

    def test_add_foreign_spans_ingests_wire_records(self):
        tracer = Tracer(proc="main", epoch_ns=0)
        worker = two_span_tracer()
        records = worker.drain()
        tracer.add_foreign_spans(records)
        assert [s.name for s in tracer.spans] == ["b", "a"]
        assert tracer.spans_recorded == 2
        assert all(isinstance(s, Span) for s in tracer.spans)


class TestTraceExport:
    def test_chrome_export_golden(self):
        trace = two_span_tracer().trace()
        assert trace.to_chrome() == {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": 0,
                    "args": {"name": "main"},
                },
                {
                    "name": "a",
                    "ph": "X",
                    "ts": 1,
                    "dur": 3,
                    "pid": 1,
                    "tid": 0,
                    "args": {"span_id": "main/1", "label": "x"},
                },
                {
                    "name": "b",
                    "ph": "X",
                    "ts": 2,
                    "dur": 1,
                    "pid": 1,
                    "tid": 0,
                    "args": {"span_id": "main/2", "parent_id": "main/1"},
                },
            ],
        }

    def test_jsonl_export_golden(self):
        lines = two_span_tracer().trace().to_jsonl().splitlines()
        assert [json.loads(line) for line in lines] == [
            {
                "id": "main/1",
                "parent": None,
                "name": "a",
                "start_ns": 1000,
                "dur_ns": 3000,
                "proc": "main",
                "thread": 0,
                "args": {"label": "x"},
            },
            {
                "id": "main/2",
                "parent": "main/1",
                "name": "b",
                "start_ns": 2000,
                "dur_ns": 1000,
                "proc": "main",
                "thread": 0,
            },
        ]

    def test_main_process_sorts_first(self):
        spans = [
            Span("a/1", None, "x", 0, 1, "a-proc", 0),
            Span("main/1", None, "x", 0, 1, "main", 0),
        ]
        events = Trace(spans).to_chrome()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["main", "a-proc"]
        assert [m["pid"] for m in meta] == [1, 2]

    @pytest.mark.parametrize("suffix", [".json", ".jsonl"])
    def test_write_round_trip(self, tmp_path, suffix):
        original = two_span_tracer().trace()
        path = original.write(tmp_path / f"t{suffix}")
        loaded = Trace.from_file(path)
        assert [s.to_dict() for s in loaded.sorted_spans()] == [
            s.to_dict() for s in original.sorted_spans()
        ]

    def test_merge_accepts_traces_and_wire_lists(self):
        merged = Trace()
        merged.merge(two_span_tracer().trace())
        merged.merge(
            [Span("w/1", None, "chunk", 0, 5, "worker:w0", 0).to_dict()]
        )
        assert len(merged) == 3
        assert {s.proc for s in merged.spans} == {"main", "worker:w0"}

    def test_sub_microsecond_timestamps_survive_chrome(self, tmp_path):
        span = Span("main/1", None, "tiny", 1500, 250, "main", 0)
        path = Trace([span]).write(tmp_path / "t.json")
        loaded = Trace.from_file(path)
        assert (loaded.spans[0].start_ns, loaded.spans[0].dur_ns) == (
            1500, 250,
        )


class TestSubtree:
    def test_extracts_rooted_tree_from_unordered_spans(self):
        # Children close before parents, so grandchildren precede the
        # spans that link them to the root — the fixed point must grow.
        spans = [
            Span("p/3", "p/2", "grandchild", 2, 1, "p", 0),
            Span("p/5", None, "unrelated", 0, 9, "p", 0),
            Span("p/2", "p/1", "child", 1, 3, "p", 0),
            Span("p/1", None, "root", 0, 5, "p", 0),
            Span("p/4", "p/5", "other-child", 1, 1, "p", 0),
        ]
        picked = {s.id for s in subtree(spans, "p/1")}
        assert picked == {"p/1", "p/2", "p/3"}

    def test_missing_root_selects_nothing(self):
        spans = [Span("p/1", None, "root", 0, 5, "p", 0)]
        assert subtree(spans, "q/9") == []


class TestModuleHooks:
    def test_span_is_shared_null_object_when_inactive(self):
        assert obs_tracing.active_tracer() is None
        first = obs_tracing.span("anything", key="value")
        second = obs_tracing.span("other")
        assert first is second  # one shared instance, zero allocation
        with first as live:
            live.annotate(ignored=True)  # all no-ops

    def test_activate_routes_spans_and_deactivate_restores(self):
        tracer = obs_tracing.activate(proc="test", epoch_ns=0)
        try:
            assert obs_tracing.active_tracer() is tracer
            with obs_tracing.span("hello", n=1):
                pass
        finally:
            assert obs_tracing.deactivate() is tracer
        assert obs_tracing.active_tracer() is None
        assert [s.name for s in tracer.spans] == ["hello"]
        assert tracer.spans[0].args == {"n": 1}
        assert obs_tracing.deactivate() is None


class TestProfiler:
    def trace(self):
        return Trace([
            Span("p/1", None, "outer", 0, 10_000_000, "p", 0),
            Span("p/2", "p/1", "inner", 1_000_000, 4_000_000, "p", 0),
            Span("p/3", "p/1", "inner", 6_000_000, 3_000_000, "p", 0),
        ])

    def test_fold_self_time_subtracts_direct_children(self):
        stats = {s.name: s for s in obs_profile.fold(self.trace())}
        outer, inner = stats["outer"], stats["inner"]
        assert (outer.count, outer.total_ns) == (1, 10_000_000)
        assert outer.self_ns == 3_000_000  # 10ms minus the two inners
        assert (inner.count, inner.total_ns) == (2, 7_000_000)
        assert inner.self_ns == 7_000_000  # leaves keep all their time
        assert inner.max_ns == 4_000_000
        assert inner.avg_ns == 3_500_000.0

    def test_fold_sorts_hottest_self_first(self):
        assert [s.name for s in obs_profile.fold(self.trace())] == [
            "inner", "outer",
        ]

    def test_wall_spans_min_start_to_max_end(self):
        assert obs_profile.wall_ns(self.trace()) == 10_000_000
        assert obs_profile.wall_ns(Trace()) == 0

    def test_render_table_and_footer(self):
        text = obs_profile.render(self.trace())
        lines = text.splitlines()
        assert lines[0].split() == [
            "phase", "count", "total_ms", "self_ms", "avg_ms", "max_ms",
            "self%",
        ]
        assert lines[2].split() == [
            "inner", "2", "7.000", "7.000", "3.500", "4.000", "70.0",
        ]
        assert lines[3].split() == [
            "outer", "1", "10.000", "3.000", "10.000", "10.000", "30.0",
        ]
        assert lines[-1] == "3 spans, 2 phases, 1 process(es), wall 10.000 ms"

    def test_profile_file_round_trip(self, tmp_path):
        path = self.trace().write(tmp_path / "t.json")
        assert obs_profile.profile_file(path) == obs_profile.render(
            self.trace()
        )


class TestEventLog:
    def test_unknown_event_rejected(self):
        log = obs_events.EventLog("test", sink=lambda line: None)
        with pytest.raises(ValueError, match="unknown event"):
            log.emit("not_an_event")

    def test_unknown_field_rejected(self):
        log = obs_events.EventLog("test", sink=lambda line: None)
        with pytest.raises(ValueError, match="does not accept"):
            log.emit("listening", port=1, color="red")

    def test_fields_render_in_registry_order(self):
        lines = []
        log = obs_events.EventLog("repro-sweep", sink=lines.append)
        # Emit order scrambled on purpose: the registry order wins.
        log.emit("chunk_granted", stolen=True, chunk=3, worker="w0",
                 configs=4)
        assert lines == [
            "repro-sweep event=chunk_granted chunk=3 worker=w0"
            " configs=4 stolen=1"
        ]

    def test_value_rendering(self):
        lines = []
        log = obs_events.EventLog("p", sink=lines.append)
        log.emit("job_done", job="job-000001", kind="qos",
                 label="a label", wall_s=1.23456)
        # bools -> ints, floats -> .3f, whitespace strings -> repr.
        assert lines == [
            "p event=job_done job=job-000001 kind=qos"
            " label='a label' wall_s=1.235"
        ]

    def test_absent_fields_omitted(self):
        lines = []
        log = obs_events.EventLog("p", sink=lines.append)
        log.emit("listening", port=7787)
        assert lines == ["p event=listening port=7787"]

    def test_jsonl_mirror_with_injected_clock(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ticks = itertools.count(100, 10)
        log = obs_events.EventLog(
            "p", sink=lambda line: None, path=path,
            clock=lambda: next(ticks),
        )
        log.emit("started", worker="w0", coordinator="127.0.0.1:1")
        log.emit("finished", worker="w0", chunks=2, configs=8,
                 abandoned=0)
        log.close()
        records = [json.loads(x) for x in path.read_text().splitlines()]
        assert records == [
            {"ts_ns": 100, "event": "started", "worker": "w0",
             "coordinator": "127.0.0.1:1"},
            {"ts_ns": 110, "event": "finished", "worker": "w0",
             "chunks": 2, "configs": 8, "abandoned": 0},
        ]
        assert log.events_logged == 2

    def test_global_install_emit_uninstall(self):
        lines = []
        log = obs_events.EventLog("deep", sink=lines.append)
        obs_events.install(log)
        try:
            obs_events.install(log)  # idempotent: no double delivery
            obs_events.emit("store_quarantine", path="x", reason="torn")
        finally:
            obs_events.uninstall(log)
        obs_events.emit("store_quarantine", path="y", reason="torn")
        assert lines == ["deep event=store_quarantine path=x reason=torn"]
        obs_events.uninstall(log)  # no-op when absent

    def test_every_registered_event_accepts_its_own_fields(self):
        log = obs_events.EventLog("p", sink=lambda line: None)
        for event, fields in obs_events.EVENTS.items():
            log.emit(event, **{field: 1 for field in fields})
        assert log.events_logged == len(obs_events.EVENTS)


# -- properties ---------------------------------------------------------------------


span_trees = st.recursive(
    st.just([]),
    lambda children: st.lists(children, max_size=3),
    max_leaves=12,
)


class TestTracingProperties:
    @given(
        tree=span_trees,
        increments=st.lists(
            st.integers(min_value=0, max_value=1_000),
            min_size=1, max_size=32,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_spans_nest_within_parents(self, tree, increments):
        """Every child interval lies within its parent's; no negative
        durations; ids unique — under an arbitrary monotonic clock."""
        ticks = itertools.cycle(increments)
        now = [0]

        def clock():
            now[0] += next(ticks)
            return now[0]

        tracer = Tracer(proc="t", clock=clock, epoch_ns=0)

        def walk(children, depth):
            with tracer.span(f"depth-{depth}"):
                for child in children:
                    walk(child, depth + 1)

        walk(tree, 0)
        by_id = {s.id: s for s in tracer.spans}
        assert len(by_id) == len(tracer.spans)
        for span in tracer.spans:
            assert span.dur_ns >= 0
            assert span.start_ns >= 0
            if span.parent is not None:
                parent = by_id[span.parent]
                assert parent.start_ns <= span.start_ns
                assert (span.start_ns + span.dur_ns
                        <= parent.start_ns + parent.dur_ns)


# -- non-perturbation ---------------------------------------------------------------


class TestTracingDoesNotPerturb:
    def test_engine_run_bit_identical_under_tracing(self):
        config = ExperimentConfig(scenario="case3", slices=5, **TINY)
        baseline = Engine().run(config)
        tracer = obs_tracing.activate(proc="test", epoch_ns=0)
        try:
            traced = Engine().run(config)
        finally:
            obs_tracing.deactivate()
        assert traced.total_energy_nj == baseline.total_energy_nj
        assert traced.records == baseline.records
        names = {s.name for s in tracer.spans}
        assert {"engine.run", "engine.materialize_runtime",
                "lutcache.fetch_or_build"} <= names
        assert tracer.spans_recorded == len(tracer.spans)

    def test_runtime_build_has_its_own_span(self, tmp_path):
        """On a cache miss the runtime build sits between the cache
        fetch and the DP, so its self time is not the cache's."""
        from repro.core import lutcache

        with lutcache.temporary_cache_dir(tmp_path):
            tracer = obs_tracing.activate(proc="test", epoch_ns=0)
            try:
                Engine().run(ExperimentConfig(slices=2, **TINY))
            finally:
                obs_tracing.deactivate()
        by_id = {s.id: s for s in tracer.spans}
        builds = [s for s in tracer.spans if s.name == "engine.runtime_build"]
        assert builds
        for build in builds:
            fetch = by_id[build.parent]
            assert fetch.name == "lutcache.fetch_or_build"
            assert fetch.args["kind"] == "runtime"
        # The t-slice bootstrap has a cache entry of its own; every DP
        # of a runtime entry runs inside the runtime build.
        dp_parents = [
            by_id[s.parent]
            for s in tracer.spans if s.name == "core.dp_build"
        ]
        assert any(p.name == "engine.runtime_build" for p in dp_parents)
        assert all(p.args.get("kind") != "runtime" for p in dp_parents)

    def test_qos_run_bit_identical_under_tracing(self):
        config = ExperimentConfig(
            scenario="bursty", slices=8, fleet=2, qos="edf", batch=2,
            **TINY,
        )
        baseline = Engine().run_qos(config)
        tracer = obs_tracing.activate(proc="test", epoch_ns=0)
        try:
            traced = Engine().run_qos(config)
        finally:
            obs_tracing.deactivate()
        assert traced.total_energy_nj == baseline.total_energy_nj
        assert traced.latency_percentiles_ns == (
            baseline.latency_percentiles_ns
        )
        names = {s.name for s in tracer.spans}
        assert "engine.qos" in names
        assert "qos.window" in names
