"""Tests of the ``repro.obs`` observability subsystem.

Four layers:

* unit tests of the trace bus (record round-trips, sinks, replay
  tagging), the metrics registry (bucket edges, merges, type guards),
  and the phase profiler;
* the observational contract, property-style — attaching a JSONL-sink
  tracer, a registry, and a profiler must leave the
  :class:`CostBreakdown` *bit-identical* to the untraced run, across
  both batched engine cores (sparse and dense) and speed ∈ {1, 2}, and
  for the general engine;
* the epoch regression — ``ineligible`` events on the live trace bus
  must reproduce exactly the epoch boundaries that the offline
  :func:`analyze_epochs` pass extracts from the recorded event trace;
* rendering and the worker flow-back path (``map_traced``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.algorithms.greedy import GreedyPendingPolicy
from repro.analysis.epochs import analyze_epochs, annotate_epochs
from repro.obs import (
    Counter,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NullSink,
    PhaseProfiler,
    TeeSink,
    TraceIntegrityError,
    TraceRecord,
    Tracer,
    flame_table,
    read_jsonl_trace,
    render_metrics,
)
from repro.obs.metrics import iter_metric_names
from repro.obs.render import (
    render_trace_stats,
    render_trace_timeline,
    summarize_trace,
)
from repro.runtime import ParallelRunner
from repro.simulation.engine import simulate
from repro.simulation.general import simulate_general
from repro.workloads.random_batched import (
    random_batched,
    random_general,
    random_rate_limited,
)


# -------------------------------------------------------------- trace bus


class TestTraceBus:
    def test_record_round_trips_through_dict(self):
        record = TraceRecord(
            3, "event", "drop", 17, {"color": 2, "count": 5}, "w0"
        )
        clone = TraceRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()
        assert clone.round_index == 17
        assert clone.worker == "w0"
        assert clone.data == {"color": 2, "count": 5}

    def test_null_sink_disables_tracer(self):
        tracer = Tracer(NullSink())
        assert tracer.enabled is False
        tracer.event("drop", 0, color=1)  # must be a silent no-op
        tracer.begin("run")
        tracer.end("run")

    def test_memory_sink_is_a_ring(self):
        sink = MemorySink(capacity=3)
        tracer = Tracer(sink)
        for index in range(5):
            tracer.event("tick", index)
        assert [r.round_index for r in sink.records] == [2, 3, 4]
        assert len(sink) == 3
        with pytest.raises(ValueError):
            MemorySink(capacity=0)

    def test_jsonl_sink_round_trips_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        memory = MemorySink()
        with JsonlSink(path) as sink:
            for target in (sink, memory):
                tracer = Tracer(target)
                tracer.begin("run", algorithm="x")
                tracer.event("drop", 4, color=1, count=2)
                tracer.annotation("epoch", 4, color=1, index=0)
                tracer.end("run", total_cost=7)
        loaded = read_jsonl_trace(path)
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in memory.records
        ]

    def test_sequence_numbers_are_monotone(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.begin("run")
        tracer.event("a")
        tracer.event("b")
        assert [r.seq for r in sink.records] == [0, 1, 2]

    def test_replay_restamps_worker_and_sequence(self):
        worker_sink = MemorySink()
        worker_tracer = Tracer(worker_sink)
        worker_tracer.event("drop", 1, color=0)
        worker_tracer.event("execute", 1, color=0, count=2)

        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.event("local")
        replayed = tracer.replay(worker_sink.records, worker="restart-3")
        assert replayed == 2
        assert [r.seq for r in sink.records] == [0, 1, 2]
        assert [r.worker for r in sink.records] == [None, "restart-3", "restart-3"]
        assert sink.records[1].name == "drop"

    def test_replay_into_disabled_tracer_is_noop(self):
        source = MemorySink()
        Tracer(source).event("x")
        assert Tracer(NullSink()).replay(source.records) == 0

    def test_memory_sink_counts_ring_discards(self):
        sink = MemorySink(capacity=3)
        tracer = Tracer(sink)
        for index in range(3):
            tracer.event("tick", index)
        assert sink.dropped == 0
        for index in range(3, 8):
            tracer.event("tick", index)
        assert sink.dropped == 5
        assert len(sink) == 3
        assert "dropped=5" in repr(sink)
        assert MemorySink(capacity=None).dropped == 0

    def test_memory_sink_close_checks_span_balance(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.begin("run")
        tracer.begin("round", 0)
        tracer.end("round", 0)
        with pytest.raises(TraceIntegrityError, match="1 unclosed"):
            sink.close()
        tracer.end("run")
        sink.close()  # balanced now

        over = MemorySink()
        Tracer(over).end("run")
        with pytest.raises(TraceIntegrityError, match="over-closed"):
            over.close()

    def test_memory_sink_span_balance_survives_ring_eviction(self):
        # The balance tracks the *stream*, not the ring contents: a tiny
        # ring that evicted the span_start must still seal cleanly.
        sink = MemorySink(capacity=2)
        tracer = Tracer(sink)
        tracer.begin("run")
        for index in range(5):
            tracer.event("tick", index)
        tracer.end("run")
        assert sink.dropped == 5
        sink.close()


class TestTeeSink:
    def test_fans_out_in_order(self):
        a, b = MemorySink(), MemorySink()
        tracer = Tracer(TeeSink(a, b))
        tracer.begin("run")
        tracer.event("drop", 1, color=0)
        tracer.end("run")
        assert [r.to_dict() for r in a.records] == [
            r.to_dict() for r in b.records
        ]
        assert len(a) == 3

    def test_tee_of_null_sinks_is_null(self):
        assert TeeSink(NullSink(), NullSink()).is_null
        assert Tracer(TeeSink(NullSink())).enabled is False
        assert not TeeSink(NullSink(), MemorySink()).is_null
        assert TeeSink().is_null  # empty tee has nowhere to deliver

    def test_close_closes_all_children_then_raises_first_error(self):
        unbalanced_a = MemorySink()
        unbalanced_b = MemorySink()
        healthy = CloseSpySink()
        tee = TeeSink(unbalanced_a, healthy, unbalanced_b)
        Tracer(tee).begin("run")  # leaves one span open in both rings
        with pytest.raises(TraceIntegrityError):
            tee.close()
        assert healthy.closed  # the failure upstream did not skip it


class CloseSpySink(NullSink):
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


# ------------------------------------------------- record round-tripping

#: Keys claimed by the flat JSONL framing; payloads must not shadow them.
_RESERVED_KEYS = frozenset({"seq", "kind", "name", "round", "worker"})

_payload_keys = st.text(
    alphabet=st.characters(min_codepoint=1, blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
).filter(lambda key: key not in _RESERVED_KEYS)

_payload_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.text(max_size=12),
)

_records = st.builds(
    TraceRecord,
    seq=st.integers(0, 2**32),
    kind=st.sampled_from(["span_start", "span_end", "event", "annotation"]),
    name=st.sampled_from(["run", "round", "phase", "drop", "wrap", "τιμή"]),
    round_index=st.one_of(st.none(), st.integers(0, 10**6)),
    data=st.dictionaries(_payload_keys, _payload_values, max_size=4),
    worker=st.one_of(st.none(), st.text(min_size=1, max_size=6)),
)


@settings(max_examples=50, deadline=None)
@given(record=_records)
def test_record_dict_round_trip_all_kinds(record):
    clone = TraceRecord.from_dict(record.to_dict())
    assert clone.seq == record.seq
    assert clone.kind == record.kind
    assert clone.name == record.name
    assert clone.round_index == record.round_index
    assert clone.worker == record.worker
    assert clone.data == record.data


# tmp_path is shared across examples; each example overwrites the file,
# which is exactly the isolation this test needs.
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(records=st.lists(_records, max_size=8))
def test_jsonl_round_trip_preserves_streams(tmp_path, records):
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        for record in records:
            sink.emit(record)
    loaded = read_jsonl_trace(path)
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]


def test_jsonl_round_trip_non_ascii_payload():
    record = TraceRecord(
        0, "annotation", "epoch", 3, {"färg": 2, "θ": "δ-LRU", "计数": 5}, "wörker"
    )
    clone = TraceRecord.from_dict(record.to_dict())
    assert clone.data == {"färg": 2, "θ": "δ-LRU", "计数": 5}
    assert clone.worker == "wörker"


# ---------------------------------------------------------------- metrics


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("engine.drops").inc()
        registry.counter("engine.drops").inc(4)
        registry.gauge("adversary.best_ratio").set(1.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.drops"] == 5
        assert snapshot["gauges"]["adversary.best_ratio"] == 1.25

    def test_histogram_bucket_edges_inclusive(self):
        histogram = Histogram("h", (1, 2, 4))
        for value in (0, 1, 2, 3, 4, 5):
            histogram.observe(value)
        # <=1 gets {0, 1}; <=2 gets {2}; <=4 gets {3, 4}; overflow {5}.
        assert histogram.counts == [2, 1, 2, 1]
        assert histogram.count == 6
        assert histogram.mean == pytest.approx(15 / 6)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("h", (4, 2, 1))
        Histogram("h")  # default POW2 ladder must be accepted

    def test_histogram_merge_requires_same_buckets(self):
        a = Histogram("h", (1, 2))
        b = Histogram("h", (1, 2))
        a.observe(1)
        b.observe(2, n=3)
        a.merge(b)
        assert a.counts == [1, 3, 0]
        assert a.count == 4
        with pytest.raises(ValueError):
            a.merge(Histogram("h", (1, 2, 4)))

    def test_histogram_merge_rejects_wrong_cell_count(self):
        # Same bounds but a counts vector of the wrong length (as a
        # corrupted or hand-built snapshot could produce) must raise, not
        # silently fold in a prefix of the cells.
        a = Histogram("h", (1, 2))
        bad = Histogram("h", (1, 2))
        bad.counts = [1, 2]  # missing the overflow cell
        with pytest.raises(ValueError, match="cells"):
            a.merge(bad)
        assert a.counts == [0, 0, 0]  # untouched on failure
        long = Histogram("h", (1, 2))
        long.counts = [1, 2, 3, 4]
        with pytest.raises(ValueError, match="cells"):
            a.merge(long)

    def test_merge_snapshot_rejects_malformed_counts(self):
        worker = MetricsRegistry()
        worker.histogram("engine.queue_depth", (1, 2)).observe(1)
        snapshot = worker.snapshot()
        snapshot["histograms"]["engine.queue_depth"]["counts"] = [1]
        main = MetricsRegistry()
        with pytest.raises(ValueError, match="cells"):
            main.merge_snapshot(snapshot)

    def test_merge_snapshot_rejects_different_bucket_configs(self):
        # Registries built with different bucket ladders for the same
        # metric must refuse to merge — element-wise addition across
        # mismatched bounds would mis-bin every cell.
        main = MetricsRegistry()
        main.histogram("engine.queue_depth", (1, 2)).observe(1)
        worker = MetricsRegistry()
        worker.histogram("engine.queue_depth", (1, 2, 4)).observe(4)
        with pytest.raises(ValueError, match="bucket bounds"):
            main.merge_snapshot(worker.snapshot())
        # The target's histogram is untouched by the failed merge.
        counts = main.snapshot()["histograms"]["engine.queue_depth"]["counts"]
        assert counts == [1, 0, 0]

    def test_merge_snapshot_is_atomic_on_failure(self):
        # A failing merge must leave the target registry exactly as it
        # was — not with the counters and gauges already folded in and
        # only the offending histogram rejected.
        main = MetricsRegistry()
        main.counter("engine.drops").inc(1)
        main.gauge("adversary.best_ratio").set(1.0)
        main.histogram("engine.queue_depth", (1, 2)).observe(1)
        worker = MetricsRegistry()
        worker.counter("engine.drops").inc(5)
        worker.gauge("adversary.best_ratio").set(3.0)
        worker.histogram("engine.queue_depth", (1, 2, 4)).observe(2)
        before = main.snapshot()
        with pytest.raises(ValueError):
            main.merge_snapshot(worker.snapshot())
        assert main.snapshot() == before
        # Type conflicts abort before any mutation too.
        clash = {"counters": {"adversary.best_ratio": 2}, "gauges": {}}
        with pytest.raises(TypeError):
            main.merge_snapshot(clash)
        assert main.snapshot() == before

    def test_registry_is_create_or_get_with_type_guard(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.drops")
        assert registry.counter("engine.drops") is counter
        assert "engine.drops" in registry
        with pytest.raises(TypeError):
            registry.gauge("engine.drops")
        registry.histogram("engine.queue_depth", (1, 2))
        with pytest.raises(ValueError):
            registry.histogram("engine.queue_depth", (1, 2, 4))

    def test_merge_snapshot_folds_worker_registries(self):
        worker = MetricsRegistry()
        worker.counter("engine.drops").inc(3)
        worker.histogram("engine.queue_depth", (1, 2)).observe(2)
        worker.gauge("adversary.best_ratio").set(2.0)

        main = MetricsRegistry()
        main.counter("engine.drops").inc(1)
        main.merge_snapshot(worker.snapshot())
        snapshot = main.snapshot()
        assert snapshot["counters"]["engine.drops"] == 4
        assert snapshot["histograms"]["engine.queue_depth"]["counts"] == [0, 1, 0]
        assert snapshot["gauges"]["adversary.best_ratio"] == 2.0

    def test_render_metrics_smoke(self):
        registry = MetricsRegistry()
        registry.counter("engine.drops").inc(2)
        registry.histogram("engine.queue_depth", (1, 2)).observe(1)
        text = render_metrics(registry.snapshot())
        assert "engine.drops" in text
        assert "histogram engine.queue_depth" in text
        assert render_metrics(MetricsRegistry().snapshot()) == "(no metrics recorded)"

    def test_render_metrics_empty_histogram_renders(self):
        # A registered-but-never-observed histogram used to be the easy
        # way to hit max() of all-zero counts.
        registry = MetricsRegistry()
        registry.histogram("engine.queue_depth", (1, 2))
        text = render_metrics(registry.snapshot())
        assert "count=0" in text and "mean=0.000" in text

    def test_render_metrics_merged_multi_worker_snapshot(self):
        def worker(drops, depth):
            registry = MetricsRegistry()
            registry.counter("engine.drops").inc(drops)
            registry.counter("engine.очередь.переполнения").inc(1)
            registry.gauge("adversary.best_ratio").set(float(drops))
            registry.histogram("engine.queue_depth", (1, 2, 4)).observe(depth)
            registry.histogram("engine.idle", (1, 2))  # never observed
            return registry.snapshot()

        merged = MetricsRegistry()
        for drops, depth in ((3, 1), (5, 4), (0, 2)):
            merged.merge_snapshot(worker(drops, depth))
        snapshot = merged.snapshot()
        text = render_metrics(snapshot)
        assert "engine.drops" in text
        assert "engine.очередь.переполнения" in text  # non-ASCII name
        assert "histogram engine.idle  count=0" in text
        assert list(iter_metric_names(snapshot)) == sorted(
            set(snapshot["counters"])
            | set(snapshot["gauges"])
            | set(snapshot["histograms"])
        )

    def test_render_metrics_snapshots_missing_sections(self):
        # Hand-built/partial payloads: each section optional, histogram
        # sub-keys optional too.
        assert render_metrics({}) == "(no metrics recorded)"
        assert list(iter_metric_names({})) == []
        only_counters = {"counters": {"a": 1}}
        assert "a" in render_metrics(only_counters)
        assert list(iter_metric_names(only_counters)) == ["a"]
        sparse_hist = {"histograms": {"h": {"count": 4, "sum": 8.0}}}
        text = render_metrics(sparse_hist)
        assert "histogram h  count=4  mean=2.000" in text
        assert list(iter_metric_names(sparse_hist)) == ["h"]

    def test_render_metrics_round_trips_through_json(self):
        import json as _json

        registry = MetricsRegistry()
        registry.counter("流量.总数").inc(7)
        registry.gauge("δ.ratio").set(1.5)
        registry.histogram("engine.queue_depth", (1, 2)).observe(2)
        snapshot = _json.loads(_json.dumps(registry.snapshot()))
        assert render_metrics(snapshot) == render_metrics(registry.snapshot())
        restored = MetricsRegistry()
        restored.merge_snapshot(snapshot)
        assert restored.snapshot() == registry.snapshot()


# --------------------------------------------------------------- profiler


class TestProfiler:
    def test_accumulates_and_merges(self):
        profiler = PhaseProfiler()
        profiler.add("execute", 0.25)
        profiler.add("execute", 0.25)
        profiler.add("drop", 0.5)
        other = PhaseProfiler()
        other.add("drop", 0.5)
        profiler.merge(other)
        assert profiler.calls == {"execute": 2, "drop": 2}
        assert profiler.total_seconds == pytest.approx(1.5)
        table = flame_table(profiler)
        assert "execute" in table and "drop" in table

    def test_engine_attributes_all_four_phases(self):
        instance = random_rate_limited(4, 2, 48, seed=3, load=0.8)
        profiler = PhaseProfiler()
        simulate(instance, DeltaLRUEDF(), 8, profiler=profiler)
        assert set(profiler.seconds) == {
            "drop",
            "arrival",
            "reconfigure",
            "execute",
        }
        assert profiler.total_seconds > 0


# ------------------------------------------------- observational contract


def _cost_fingerprint(result):
    cost = result.cost
    return (
        cost.summary(),
        cost.reconfigs_by_color,
        cost.drops_by_color,
        cost.executions_by_color,
    )


# tmp_path is shared across examples; each example overwrites trace.jsonl,
# which is exactly the isolation this test needs.
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**31),
    scheme=st.sampled_from([DeltaLRU, EDF, DeltaLRUEDF]),
    engine=st.sampled_from(["sparse", "dense"]),
    speed=st.sampled_from([1, 2]),
)
def test_tracing_is_observational_batched(tmp_path, seed, scheme, engine, speed):
    """JSONL-sink and null-sink runs produce bit-identical costs."""
    instance = random_rate_limited(
        4, 2, 48, seed=seed, load=0.8, bound_choices=(2, 4, 8)
    )
    untraced = simulate(
        instance, scheme(), 8, speed=speed, engine=engine, record="costs"
    )
    nulled = simulate(
        instance,
        scheme(),
        8,
        speed=speed,
        engine=engine,
        record="costs",
        tracer=Tracer(NullSink()),
    )
    path = tmp_path / "trace.jsonl"
    registry = MetricsRegistry()
    with JsonlSink(path) as sink:
        traced = simulate(
            instance,
            scheme(),
            8,
            speed=speed,
            engine=engine,
            record="costs",
            tracer=Tracer(sink),
            registry=registry,
            profiler=PhaseProfiler(),
        )
    assert _cost_fingerprint(untraced) == _cost_fingerprint(nulled)
    assert _cost_fingerprint(untraced) == _cost_fingerprint(traced)
    records = read_jsonl_trace(path)
    run_end = [r for r in records if r.name == "run" and r.kind == "span_end"]
    assert len(run_end) == 1
    assert run_end[0].data["total_cost"] == untraced.total_cost
    # The registry agrees with the cost breakdown it observed.
    snapshot = registry.snapshot()
    assert snapshot["counters"]["engine.drops"] == sum(
        untraced.cost.drops_by_color.values()
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 2**31))
def test_tracing_is_observational_general(tmp_path, seed):
    instance = random_general(3, 2, 32, seed=seed, rate=0.7)
    untraced = simulate_general(instance, GreedyPendingPolicy(), 4)
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        traced = simulate_general(
            instance,
            GreedyPendingPolicy(),
            4,
            tracer=Tracer(sink),
            registry=MetricsRegistry(),
        )
    assert _cost_fingerprint(untraced) == _cost_fingerprint(traced)
    records = read_jsonl_trace(path)
    header = next(
        r for r in records if r.name == "run" and r.kind == "span_start"
    )
    assert header.data["engine"] == "general"


def test_traced_sparse_run_still_fast_forwards():
    """Attaching a tracer must not disable sparse round skipping."""
    instance = random_batched(8, 4, 256, seed=7, load=0.35)
    sink = MemorySink(capacity=None)
    registry = MetricsRegistry()
    result = simulate(
        instance,
        DeltaLRUEDF(),
        8,
        record="costs",
        tracer=Tracer(sink),
        registry=registry,
    )
    names = {r.name for r in sink.records}
    assert "fast_forward" in names
    assert "cache_hit" in names
    skipped = registry.snapshot()["counters"]["engine.rounds_fast_forwarded"]
    assert skipped > 0
    untraced = simulate(instance, DeltaLRUEDF(), 8, record="costs")
    assert _cost_fingerprint(result) == _cost_fingerprint(untraced)


# --------------------------------------------------------- epoch regression


class TestEpochRegression:
    def _traced_run(self, seed=11):
        instance = random_batched(6, 3, 192, seed=seed, load=0.6)
        sink = MemorySink(capacity=None)
        result = simulate(
            instance, DeltaLRU(), 8, record="full", tracer=Tracer(sink)
        )
        return result, sink

    def test_live_ineligible_events_match_offline_epochs(self):
        """Trace-bus epoch boundaries == offline ``analyze_epochs``.

        The offline pass derives each color's epoch ends from the
        recorded event trace; the live bus emits an ``ineligible`` event
        at the moment a color's epoch closes.  They must agree exactly.
        """
        result, sink = self._traced_run()
        analysis = analyze_epochs(result.trace, threshold=2)
        offline = {
            (color, epoch.end)
            for color, epochs in analysis.epochs_by_color.items()
            for epoch in epochs
            if epoch.complete
        }
        live = {
            (r.data["color"], r.round_index)
            for r in sink.records
            if r.name == "ineligible"
        }
        assert offline  # the workload must actually close epochs
        assert live == offline

    def test_annotate_epochs_writes_annotations(self):
        result, sink = self._traced_run()
        tracer = Tracer(sink)
        analysis = analyze_epochs(result.trace, threshold=2)
        emitted = annotate_epochs(analysis, tracer)
        annotations = [r for r in sink.records if r.kind == "annotation"]
        assert emitted == len(annotations)
        assert emitted == analysis.num_epochs + len(analysis.super_epochs)
        epoch_notes = [r for r in annotations if r.name == "epoch"]
        by_color = {
            (r.data["color"], r.data["index"]): r for r in epoch_notes
        }
        for color, epochs in analysis.epochs_by_color.items():
            for epoch in epochs:
                note = by_color[(color, epoch.index)]
                assert note.data["start"] == epoch.start
                assert note.data["complete"] == epoch.complete

    def test_annotate_epochs_disabled_tracer(self):
        result, _ = self._traced_run()
        analysis = analyze_epochs(result.trace, threshold=2)
        assert annotate_epochs(analysis, None) == 0
        assert annotate_epochs(analysis, Tracer(NullSink())) == 0


# ------------------------------------------------------------- rendering


class TestRendering:
    def _records(self):
        sink = MemorySink(capacity=None)
        instance = random_batched(8, 4, 256, seed=7, load=0.35)
        simulate(
            instance, DeltaLRUEDF(), 8, record="costs", tracer=Tracer(sink)
        )
        return sink.records

    def test_timeline_shows_phases_and_skips(self):
        text = render_trace_timeline(self._records())
        assert "drop c" in text
        assert "arr c" in text
        assert "reconfig c" in text
        assert "exec c" in text
        assert "fast-forward" in text
        assert "hit:fixed_point" in text
        assert text.startswith("run ")
        assert "total cost" in text.splitlines()[-1]

    def test_timeline_round_cap(self):
        text = render_trace_timeline(self._records(), max_rounds=5)
        shown = [line for line in text.splitlines() if line.startswith("round ")]
        assert len(shown) == 5
        assert "more rounds with events" in text

    def test_stats_summary(self):
        records = self._records()
        summary = summarize_trace(records)
        assert summary["events"]["fast_forward"] > 0
        assert summary["rounds_simulated"] > 0
        assert summary["rounds_fast_forwarded"] > 0
        assert sum(summary["drops_by_color"].values()) == sum(
            1 * r.data["count"] for r in records if r.name == "drop"
        )
        text = render_trace_stats(records)
        assert "rounds:" in text
        assert "fast-forwarded" in text

    def test_empty_trace(self):
        assert render_trace_timeline([]) == "(empty trace)"
        assert render_trace_stats([]) == "(empty trace)"


# ------------------------------------------------------ worker flow-back


def _traced_task(seed: int):
    """Worker body for map_traced: returns (result, records)."""
    sink = MemorySink(capacity=None)
    tracer = Tracer(sink)
    tracer.begin("restart", restart=seed)
    tracer.event("improvement", ratio=seed * 0.5)
    tracer.end("restart")
    return seed * 10, sink.records


class TestMapTraced:
    def test_flow_back_tags_and_orders(self):
        runner = ParallelRunner(force_serial=True)
        sink = MemorySink()
        tracer = Tracer(sink)
        results = runner.map_traced(
            _traced_task, [1, 2], tracer=tracer, tags=["w-1", "w-2"]
        )
        assert results == [10, 20]
        workers = [r.worker for r in sink.records]
        assert workers == ["w-1"] * 3 + ["w-2"] * 3
        assert [r.seq for r in sink.records] == list(range(6))

    def test_flow_back_without_tracer_discards_records(self):
        runner = ParallelRunner(force_serial=True)
        assert runner.map_traced(_traced_task, [3]) == [30]
        assert runner.map_traced(
            _traced_task, [3], tracer=Tracer(NullSink())
        ) == [30]

    def test_parallel_flow_back_matches_serial(self):
        serial_sink = MemorySink()
        ParallelRunner(force_serial=True).map_traced(
            _traced_task, [1, 2, 3, 4], tracer=Tracer(serial_sink)
        )
        parallel_sink = MemorySink()
        ParallelRunner(max_workers=2).map_traced(
            _traced_task, [1, 2, 3, 4], tracer=Tracer(parallel_sink)
        )
        assert [r.to_dict() for r in serial_sink.records] == [
            r.to_dict() for r in parallel_sink.records
        ]
