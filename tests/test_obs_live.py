"""Tests of the live-ops surface: run registry, HTTP service, sampling.

Four layers:

* registry durability — crash-safe append semantics: concurrent
  appenders (one segment per writer instance, ParallelRunner workers),
  recovery after a simulated torn write (kill -9 mid-``write``), and
  the strict/lenient read split;
* registry semantics — digests, recorder hooks for every pipeline
  (simulate/matrix/search/offline), diff round-trips, abbreviated ids;
* the ops HTTP service — /metrics parses as Prometheus exposition and
  matches the merged in-process registry exactly (histogram _sum/_count
  included), /health flips to 503 on violations, /runs serves the
  registry JSON;
* the sampling tracer — bit-identical costs, deterministic kept sets,
  monitor events and span balance always preserved, and the engine
  ``keep_round`` shortcut agreeing with emission-time suppression.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

import pytest

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.greedy import GreedyPendingPolicy
from repro.analysis.adversary_search import SearchConfig, search_adversary
from repro.experiments.sweeps import run_matrix
from repro.obs import (
    MemorySink,
    MetricsRegistry,
    OpsService,
    OpsState,
    RegistryError,
    RegistrySink,
    RunRecord,
    RunRegistry,
    SamplingController,
    SamplingTracer,
    Tracer,
    diff_runs,
    instance_digest,
    prometheus_text,
    render_run,
    render_run_diff,
    render_run_list,
    sample_records,
)
from repro.obs.sampling import MONITOR_EVENT_NAMES
from repro.offline.optimal import optimal_offline
from repro.runtime import ParallelRunner
from repro.simulation.engine import simulate
from repro.simulation.general import simulate_general
from repro.workloads.random_batched import random_batched, random_general


def _instance(seed=1, horizon=64, colors=4):
    return random_batched(
        colors, 3, horizon, seed=seed, load=0.5, name=f"live-{seed}"
    )


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


# --------------------------------------------------------------- registry


class TestRunRegistry:
    def test_append_read_roundtrip(self, tmp_path):
        registry = RunRegistry(tmp_path)
        record = RunRecord(kind="simulate", instance_name="w", seed=3)
        registry.append(record)
        registry.close()
        loaded = RunRegistry(tmp_path).records()
        assert len(loaded) == 1
        assert loaded[0].run_id == record.run_id
        assert loaded[0].seed == 3

    def test_segment_rotation(self, tmp_path):
        registry = RunRegistry(tmp_path, segment_records=2)
        for index in range(5):
            registry.append(RunRecord(kind="simulate", seed=index))
        registry.close()
        assert len(registry.segments()) == 3
        assert len(RunRegistry(tmp_path).records()) == 5

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.append(RunRecord(kind="simulate", seed=1))
        registry.append(RunRecord(kind="simulate", seed=2))
        registry.close()
        segment = registry.segments()[0]
        # Simulate kill -9 mid-write: valid records, then a partial line
        # with no terminating newline.
        with segment.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-run/v1", "kind": "sim')
        reader = RunRegistry(tmp_path)
        records = reader.records()
        assert [r.seed for r in records] == [1, 2]
        assert reader.skipped_lines == 1
        with pytest.raises(RegistryError):
            reader.records(strict=True)

    def test_midfile_corruption_raises_even_lenient(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.append(RunRecord(kind="simulate", seed=1))
        registry.close()
        segment = registry.segments()[0]
        good = segment.read_text()
        segment.write_text("{broken}\n" + good)
        with pytest.raises(RegistryError):
            RunRegistry(tmp_path).records()

    def test_wrong_schema_rejected(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.append(RunRecord(kind="simulate"))
        registry.close()
        segment = registry.segments()[0]
        segment.write_text(
            json.dumps({"schema": "repro-run/v999", "kind": "simulate"}) + "\n"
        )
        with pytest.raises(RegistryError):
            RunRegistry(tmp_path).records()

    def test_concurrent_writer_instances_never_collide(self, tmp_path):
        # Two live registry handles on one directory — the in-process
        # analogue of two ParallelRunner worker processes appending at
        # once.  Each gets a private segment, so no interleaving.
        a = RunRegistry(tmp_path, segment_records=2)
        b = RunRegistry(tmp_path, segment_records=2)
        for index in range(4):
            a.append(RunRecord(kind="simulate", seed=index))
            b.append(RunRecord(kind="search", seed=index))
        a.close()
        b.close()
        records = RunRegistry(tmp_path).records()
        assert len(records) == 8
        assert sum(1 for r in records if r.kind == "simulate") == 4

    def test_get_supports_abbreviation_and_ambiguity(self, tmp_path):
        with RunRegistry(tmp_path) as registry:
            record = registry.append(RunRecord(kind="simulate"))
            assert registry.get(record.run_id[:5]).run_id == record.run_id
            with pytest.raises(KeyError):
                registry.get("nope")
            # Empty prefix matches every record: unique while there is
            # one record, ambiguous as soon as there are two.
            assert registry.get("").run_id == record.run_id
            registry.append(RunRecord(kind="simulate"))
            with pytest.raises(KeyError):
                registry.get("")

    def test_last_filters_by_kind(self, tmp_path):
        with RunRegistry(tmp_path) as registry:
            for kind in ("simulate", "search", "simulate"):
                registry.append(RunRecord(kind=kind))
        assert len(registry.last(10, kind="simulate")) == 2
        assert len(registry.last(1, kind="simulate")) == 1

    def test_last_zero_is_none_and_negative_is_refused(self, tmp_path):
        with RunRegistry(tmp_path) as registry:
            for seed in range(4):
                registry.append(RunRecord(kind="simulate", seed=seed))
        # records[-n:] listed all four runs for n = 0 and dropped the
        # three oldest for n = -3.
        assert registry.last(0) == []
        assert [r.seed for r in registry.last(None)] == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="nonnegative"):
            registry.last(-3)


class TestInstanceDigest:
    def test_name_excluded_content_included(self):
        a = random_batched(4, 3, 64, seed=1, load=0.5, name="one")
        b = random_batched(4, 3, 64, seed=1, load=0.5, name="two")
        c = random_batched(4, 3, 64, seed=2, load=0.5, name="one")
        assert instance_digest(a) == instance_digest(b)
        assert instance_digest(a) != instance_digest(c)


class TestRegistrySink:
    def test_record_simulate(self, tmp_path):
        sink = RegistrySink(tmp_path)
        instance = _instance()
        result = simulate(instance, DeltaLRU(), 2, engine="sparse")
        record = sink.record_simulate(result, engine="sparse", seed=1)
        sink.close()
        assert record.kind == "simulate"
        assert record.cost["total"] == result.total_cost
        assert record.instance_digest == instance_digest(instance)
        assert record.num_jobs == len(instance.sequence)

    def test_record_search_and_offline(self, tmp_path):
        sink = RegistrySink(tmp_path)
        config = SearchConfig(iterations=3, restarts=1, horizon=16, seed=0)
        search = search_adversary(DeltaLRU, config, recorder=sink)
        instance = random_general(3, 2, 16, seed=0, rate=0.4)
        solve = optimal_offline(instance, 2, recorder=sink)
        sink.close()
        records = sink.registry.records()
        kinds = [r.kind for r in records]
        assert kinds.count("search") == 1
        assert kinds.count("offline") == 1
        search_record = next(r for r in records if r.kind == "search")
        assert search_record.extra["best_ratio"] == search.best_ratio
        offline_record = next(r for r in records if r.kind == "offline")
        assert offline_record.cost["total"] == solve.cost
        assert offline_record.wall_seconds > 0

    def test_run_matrix_records_and_publishes(self, tmp_path):
        instances = [_instance(seed=s) for s in (1, 2)]
        sink = RegistrySink(tmp_path)
        state = OpsState()
        plain = run_matrix(instances, [DeltaLRU, DeltaLRUEDF], 8)
        wired = run_matrix(
            instances,
            [DeltaLRU, DeltaLRUEDF],
            8,
            recorder=sink,
            publish=state.publish_snapshot,
            runner=ParallelRunner(max_workers=2, chunk_size=1),
        )
        sink.close()
        assert (plain.total_costs == wired.total_costs).all()
        records = sink.registry.records()
        assert len(records) == 4
        assert all(r.kind == "matrix" for r in records)
        assert state.snapshots_merged == 4
        # Folding every per-cell snapshot reproduces the served registry.
        merged = MetricsRegistry()
        for record in records:
            merged.merge_snapshot(record.metrics)
        assert merged.snapshot() == state.metrics.snapshot()


class TestRunDiff:
    def test_roundtrip_and_render(self, tmp_path):
        sink = RegistrySink(tmp_path)
        instance = _instance()
        a = sink.record_simulate(
            simulate(instance, DeltaLRU(), 2, engine="sparse"),
            engine="sparse",
        )
        b = sink.record_simulate(
            simulate(instance, DeltaLRU(), 2, engine="dense"),
            engine="dense",
        )
        sink.close()
        # Survive the disk round-trip before diffing.
        registry = RunRegistry(tmp_path)
        diff = diff_runs(registry.get(a.run_id), registry.get(b.run_id))
        assert diff.same_instance
        assert diff.changed == {"engine": ("sparse", "dense")}
        assert diff.cost_delta == {}  # engines agree bit-for-bit
        text = render_run_diff(diff)
        assert "identical (same digest)" in text
        assert "'sparse' -> 'dense'" in text

    def test_identical_runs(self):
        record = RunRecord(kind="simulate", cost={"total": 5})
        other = RunRecord(kind="simulate", cost={"total": 5})
        assert diff_runs(record, other).identical_outcome

    def test_renderers_cover_empty_and_metrics(self):
        assert render_run_list([]) == "(registry is empty)"
        record = RunRecord(
            kind="simulate",
            metrics={"counters": {"x": 1}, "gauges": {}, "histograms": {}},
        )
        assert "metrics snapshot attached" in render_run(record)


# ---------------------------------------------------------------- service


class TestOpsService:
    def test_endpoints(self, tmp_path):
        with RunRegistry(tmp_path) as registry:
            recorded = registry.append(RunRecord(kind="simulate", seed=1))
        state = OpsState(run_registry=registry)
        state.publish_snapshot(
            {"counters": {"engine.drops": 7}, "gauges": {}, "histograms": {}}
        )
        with OpsService(state) as service:
            status, text = _get(service.url + "/metrics")
            assert status == 200
            assert "repro_engine_drops_total 7" in text
            assert "ops_healthy 1.0" in text

            status, body = _get(service.url + "/health")
            health = json.loads(body)
            assert status == 200 and health["status"] == "ok"
            assert health["snapshots_merged"] == 1

            status, body = _get(service.url + "/runs")
            payload = json.loads(body)
            assert payload["count"] == 1
            assert payload["runs"][0]["run_id"] == recorded.run_id

            status, body = _get(
                service.url + "/runs/" + recorded.run_id[:6]
            )
            assert json.loads(body)["seed"] == 1

            with pytest.raises(urllib.error.HTTPError) as err:
                _get(service.url + "/runs/zzzz")
            err.value.close()  # the error holds the response socket
            assert err.value.code == 404

    def test_runs_limit(self, tmp_path):
        with RunRegistry(tmp_path) as registry:
            for seed in range(4):
                registry.append(RunRecord(kind="simulate", seed=seed))
        with OpsService(OpsState(run_registry=registry)) as service:
            _, body = _get(service.url + "/runs?limit=2")
            assert [r["seed"] for r in json.loads(body)["runs"]] == [2, 3]
            # limit=0 served the whole registry, and a negative limit was
            # clamped to 0.
            _, body = _get(service.url + "/runs?limit=0")
            assert json.loads(body)["count"] == 0
            for bad in ("-1", "abc"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(service.url + f"/runs?limit={bad}")
                err.value.close()  # the error holds the response socket
                assert err.value.code == 400

    def test_health_degrades_on_violations(self):
        state = OpsState()
        with OpsService(state) as service:
            state.report_violations(3)
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(service.url + "/health")
            assert err.value.code == 503
            payload = json.loads(err.value.read().decode())
            assert payload["status"] == "degraded"
            assert payload["monitor_violations"] == 3

    def test_metrics_exposition_matches_registry_exactly(self, tmp_path):
        # The acceptance bar: scrape-side exposition == in-process
        # exposition of the merged registry, histogram _sum/_count and
        # all.  The served text only adds the ops_* self-metrics.
        instances = [_instance(seed=s, horizon=96) for s in (3, 4)]
        state = OpsState()
        with OpsService(state) as service:
            run_matrix(
                instances,
                [DeltaLRU, DeltaLRUEDF],
                8,
                publish=state.publish_snapshot,
                runner=ParallelRunner(max_workers=2, chunk_size=1),
            )
            _, scraped = _get(service.url + "/metrics")
        expected = prometheus_text(state.metrics)
        assert scraped.startswith(expected)
        assert "_sum " in expected and "_count " in expected
        for line in scraped.splitlines():
            assert line.startswith("#") or " " in line  # parses as exposition

    def test_port_requires_start(self):
        service = OpsService(OpsState())
        with pytest.raises(RuntimeError):
            service.port


# --------------------------------------------------------------- sampling


class TestSamplingController:
    def test_fixed_probability_deterministic(self):
        a = SamplingController(probability=0.3, seed=9)
        b = SamplingController(probability=0.3, seed=9)
        kept_a = [k for k in range(256) if a.keep_round(k)]
        kept_b = [k for k in range(256) if b.keep_round(k)]
        assert kept_a == kept_b
        assert 0 < len(kept_a) < 256

    def test_probability_extremes(self):
        keep_all = SamplingController(probability=1.0)
        keep_none = SamplingController(probability=0.0)
        assert all(keep_all.keep_round(k) for k in range(64))
        assert not any(keep_none.keep_round(k) for k in range(64))

    def test_monitor_events_always_admitted(self):
        controller = SamplingController(probability=0.0)
        for name in MONITOR_EVENT_NAMES:
            assert controller.admits("event", name, 5)
        assert not controller.admits("event", "execute", 5)
        assert not controller.admits("span_start", "round", 5)
        assert controller.admits("span_start", "run", None)
        assert controller.admits("annotation", "epoch", 5)

    def test_adaptive_starts_at_floor_and_validates(self):
        controller = SamplingController()
        assert controller.adaptive
        assert controller.probability == controller.min_probability
        with pytest.raises(ValueError):
            SamplingController(probability=1.5)
        with pytest.raises(ValueError):
            SamplingController(target_overhead=0.0)


class TestSamplingTracer:
    def test_costs_bit_identical_and_guarantees(self):
        instance = _instance(seed=5, horizon=256, colors=6)
        plain = simulate(instance, DeltaLRU(), 2, engine="sparse")
        full_sink = MemorySink(capacity=None)
        full = simulate(
            instance, DeltaLRU(), 2, engine="sparse", tracer=Tracer(full_sink)
        )
        sampled_sink = MemorySink(capacity=None)
        tracer = SamplingTracer(
            sampled_sink,
            controller=SamplingController(probability=0.25, seed=7),
        )
        sampled = simulate(
            instance, DeltaLRU(), 2, engine="sparse", tracer=tracer
        )
        assert plain.cost.total == full.cost.total == sampled.cost.total
        full_records = list(full_sink)
        sampled_records = list(sampled_sink)
        assert 0 < len(sampled_records) < len(full_records)
        # Monitor-relevant events survive in full.
        keep = lambda rs: [
            r for r in rs if r.kind == "event" and r.name in MONITOR_EVENT_NAMES
        ]
        assert len(keep(sampled_records)) == len(keep(full_records))
        # Span balance (MemorySink.close would raise otherwise).
        depth = 0
        for record in sampled_records:
            if record.kind == "span_start":
                depth += 1
            elif record.kind == "span_end":
                depth -= 1
                assert depth >= 0
        assert depth == 0

    def test_engine_shortcut_agrees_with_posthoc_filter(self):
        instance = _instance(seed=6, horizon=256, colors=6)
        full_sink = MemorySink(capacity=None)
        simulate(
            instance, DeltaLRU(), 2, engine="sparse", tracer=Tracer(full_sink)
        )
        sampled_sink = MemorySink(capacity=None)
        simulate(
            instance,
            DeltaLRU(),
            2,
            engine="sparse",
            tracer=SamplingTracer(
                sampled_sink,
                controller=SamplingController(probability=0.25, seed=3),
            ),
        )
        post = sample_records(list(full_sink), probability=0.25, seed=3)
        live_rounds = sorted(
            r.round_index
            for r in sampled_sink
            if r.kind == "span_start" and r.name == "round"
        )
        post_rounds = sorted(
            r.round_index
            for r in post
            if r.kind == "span_start" and r.name == "round"
        )
        assert live_rounds == post_rounds

    def test_dense_engine_also_bit_identical(self):
        instance = _instance(seed=8, horizon=128)
        plain = simulate(instance, DeltaLRU(), 2, engine="dense")
        sampled = simulate(
            instance,
            DeltaLRU(),
            2,
            engine="dense",
            tracer=SamplingTracer(
                MemorySink(capacity=None),
                controller=SamplingController(probability=0.1, seed=1),
            ),
        )
        assert plain.cost.total == sampled.cost.total

    def test_general_engine_bit_identical_and_keeps_keep_set(self):
        instance = random_general(
            6, 3, 256, seed=4, rate=0.1, bound_choices=(4, 8, 16)
        )

        def run(tracer=None):
            registry = MetricsRegistry()
            result = simulate_general(
                instance, GreedyPendingPolicy(), 4, record="costs",
                tracer=tracer, registry=registry,
            )
            return result, registry.snapshot()

        plain, plain_snapshot = run()
        full_sink = MemorySink(capacity=None)
        full, _ = run(Tracer(full_sink))
        sampled_sink = MemorySink(capacity=None)
        tracer = SamplingTracer(
            sampled_sink,
            controller=SamplingController(probability=0.25, seed=7),
        )
        sampled, sampled_snapshot = run(tracer)
        assert plain.cost == full.cost == sampled.cost
        assert plain.rounds_executed == sampled.rounds_executed
        assert plain_snapshot == sampled_snapshot
        # Every keep-set event survives, in order and with its payload.
        keep = lambda sink: [
            (r.name, r.round_index, sorted(r.data.items()))
            for r in sink
            if r.kind == "event" and r.name in MONITOR_EVENT_NAMES
        ]
        assert keep(sampled_sink) == keep(full_sink)
        assert 0 < len(list(sampled_sink)) < len(list(full_sink))
        # The engine shed sampled-out rounds before building records.
        stats = tracer.controller.stats()
        assert stats["rounds_kept"] < stats["rounds_seen"]

    def test_adaptive_run_is_observational(self):
        instance = _instance(seed=9, horizon=256, colors=6)
        plain = simulate(instance, DeltaLRU(), 2, engine="sparse")
        tracer = SamplingTracer(
            MemorySink(capacity=None), controller=SamplingController()
        )
        sampled = simulate(
            instance, DeltaLRU(), 2, engine="sparse", tracer=tracer
        )
        assert plain.cost.total == sampled.cost.total
        stats = tracer.controller.stats()
        assert stats["adaptive"] is True
        assert stats["rounds_seen"] > 0

    def test_profiler_disables_engine_shortcut(self):
        from repro.obs import PhaseProfiler

        instance = _instance(seed=10, horizon=128)
        profiler = PhaseProfiler()
        sink = MemorySink(capacity=None)
        result = simulate(
            instance,
            DeltaLRU(),
            2,
            engine="sparse",
            tracer=SamplingTracer(
                sink, controller=SamplingController(probability=0.0, seed=1)
            ),
            profiler=profiler,
        )
        # Rounds still profiled even though trace detail is suppressed.
        assert result.cost.total == simulate(
            instance, DeltaLRU(), 2, engine="sparse"
        ).cost.total
        assert not any(
            r.kind == "span_start" and r.name == "round" for r in sink
        )

    def test_stats_do_not_depend_on_the_engine_shortcut(self):
        # A profiler turns the keep_round shortcut off, so the tracer is
        # offered every record of a sampled-out round; stats() must read
        # the same either way, on both engines.
        from repro.algorithms.never import AlwaysReconfigurePolicy
        from repro.obs import PhaseProfiler

        batched = _instance(seed=6, horizon=256, colors=6)
        general = random_general(6, 4, 192, seed=0)
        runs = {
            "batched": lambda **kw: simulate(
                batched, DeltaLRU(), 2, record="costs", **kw
            ),
            "general": lambda **kw: simulate_general(
                general, AlwaysReconfigurePolicy(), 4, record="costs", **kw
            ),
        }
        for name, run in runs.items():
            stats = []
            for profiler in (None, PhaseProfiler()):
                controller = SamplingController(probability=0.3, seed=5)
                run(
                    tracer=SamplingTracer(
                        MemorySink(capacity=None), controller=controller
                    ),
                    profiler=profiler,
                )
                stats.append(controller.stats())
            assert stats[0] == stats[1], name
            assert 0 < stats[0]["rounds_kept"] < stats[0]["rounds_seen"], name

    def test_replay_bypasses_sampling(self):
        from repro.obs import TraceRecord

        sink = MemorySink(capacity=None)
        tracer = SamplingTracer(
            sink, controller=SamplingController(probability=0.0)
        )
        tracer.replay(
            [TraceRecord(0, "span_start", "round", 3, {}, None)],
            worker="w-0",
        )
        assert len(list(sink)) == 1
