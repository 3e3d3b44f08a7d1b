"""Tests of the live monitors, trace analytics, and exporters.

Four layers:

* **online == offline, property-style** — every live monitor verdict
  must equal the corresponding offline auditor run on the recorded
  ``Trace`` of the same run: epoch/super-epoch structure vs
  :func:`analyze_epochs`, Lemma 3.3 credits vs
  :func:`audit_epoch_credits`, Lemma 3.4 containment vs
  :func:`audit_ineligible_drops`, and the §3.4 credit assignment vs
  :func:`audit_super_epoch_credits` against a branch-and-bound OFF
  schedule.  Both directions share the streaming cores, so the assertion
  is structural equality of the audit dataclasses, not just verdicts.
* **bit-identity** — attaching the full monitor set must leave the
  ``CostBreakdown`` bit-identical across engines × speed × cores.
* **violation mechanics** — hand-built record streams that break the
  invariants must produce the typed findings (and ``policy="raise"``
  must raise at the offending record).
* **analytics and exporters** — ``diff_traces`` divergence/attribution
  semantics and the Prometheus / Chrome-trace output formats.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.analysis.credits import (
    CreditScheme,
    audit_epoch_credits,
    audit_ineligible_drops,
    audit_super_epoch_credits,
)
from repro.analysis.epochs import analyze_epochs, super_epoch_threshold
from repro.obs import (
    CreditMonitor,
    DropContainmentMonitor,
    EpochMonitor,
    MemorySink,
    MetricsRegistry,
    MonitorError,
    RatioMonitor,
    SuperEpochCreditMonitor,
    TeeSink,
    TraceRecord,
    Tracer,
    chrome_trace_events,
    diff_traces,
    prometheus_text,
    render_trace_diff,
    standard_monitors,
    write_chrome_trace,
)
from repro.offline.optimal import optimal_offline
from repro.simulation.engine import simulate
from repro.simulation.general import simulate_general
from repro.workloads.random_batched import random_general, random_rate_limited


def _cost_fingerprint(result):
    cost = result.cost
    return (
        cost.summary(),
        cost.reconfigs_by_color,
        cost.drops_by_color,
        cost.executions_by_color,
    )


def _monitored_run(instance, scheme, resources, monitors, **kwargs):
    tracer = Tracer(TeeSink(*monitors))
    result = simulate(
        instance, scheme, resources, tracer=tracer, **kwargs
    )
    tracer.close()
    return result


# ---------------------------------------------- online == offline parity


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    scheme=st.sampled_from([DeltaLRU, EDF, DeltaLRUEDF]),
    engine=st.sampled_from(["sparse", "dense"]),
)
def test_monitor_verdicts_match_offline_auditors(seed, scheme, engine):
    """Epoch/credit/containment monitors == the offline auditors."""
    instance = random_rate_limited(
        4, 2, 48, seed=seed, load=0.8, bound_choices=(2, 4, 8)
    )
    epoch = EpochMonitor()
    credit = CreditMonitor()
    containment = DropContainmentMonitor()
    result = _monitored_run(
        instance,
        scheme(),
        8,
        [epoch, credit, containment],
        record="full",
        engine=engine,
    )
    assert epoch.ok and credit.ok and containment.ok

    offline = analyze_epochs(result.trace, threshold=super_epoch_threshold(8))
    online = epoch.analysis()
    assert online.epochs_by_color == offline.epochs_by_color
    assert online.super_epochs == offline.super_epochs
    assert online.num_epochs == offline.num_epochs

    assert credit.audit() == audit_epoch_credits(result)
    assert containment.audit() == audit_ineligible_drops(result)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_super_epoch_monitor_matches_offline_audit(seed):
    """§3.4 credit assignment: live stream == full-trace audit.

    Mirrors ``test_super_epoch_credits``: the online algorithm runs with
    the paper's resource advantage (n=16 vs OFF's m=2), where Lemmas
    3.13/3.17 are guaranteed, so the monitor must finish clean AND its
    audit must equal the offline one structurally.
    """
    instance = random_rate_limited(
        4, 2, 24, seed=seed, load=0.8, bound_choices=(2, 4)
    )
    off = optimal_offline(instance, 2, max_states=800_000)
    monitor = SuperEpochCreditMonitor(instance, off.schedule)
    result = _monitored_run(
        instance, DeltaLRUEDF(), 16, [monitor], record="full"
    )
    assert monitor.ok, [str(v) for v in monitor.violations]
    assert monitor.audit() == audit_super_epoch_credits(
        result, off.schedule, 2
    )


def test_credit_scheme_balances_stay_nonnegative():
    """The runnable credit-edf scheme never spends credit it lacks."""
    instance = random_rate_limited(4, 2, 96, seed=5, load=0.8)
    credit = CreditMonitor(policy="raise")
    _monitored_run(instance, CreditScheme(), 8, [credit], record="costs")
    assert credit.ok
    assert credit._track_balances  # the scheme was recognized


# ------------------------------------------------------------ bit-identity


@settings(
    max_examples=15,
    deadline=None,
)
@given(
    seed=st.integers(0, 2**31),
    engine=st.sampled_from(["sparse", "dense"]),
    speed=st.sampled_from([1, 2]),
)
def test_monitors_are_observational_batched(seed, engine, speed):
    instance = random_rate_limited(
        4, 2, 48, seed=seed, load=0.8, bound_choices=(2, 4, 8)
    )
    baseline = simulate(
        instance, DeltaLRUEDF(), 8, speed=speed, engine=engine, record="costs"
    )
    registry = MetricsRegistry()
    monitors = standard_monitors(instance, registry=registry)
    monitored = _monitored_run(
        instance,
        DeltaLRUEDF(),
        8,
        monitors,
        speed=speed,
        engine=engine,
        record="costs",
        registry=registry,
    )
    assert all(monitor.ok for monitor in monitors)
    assert _cost_fingerprint(baseline) == _cost_fingerprint(monitored)
    # The ratio gauge was exported and the reconstruction self-check held.
    assert registry.snapshot()["gauges"]["monitor.competitive_ratio"] >= 1.0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_monitors_are_observational_general(seed):
    from repro.algorithms.greedy import GreedyPendingPolicy

    instance = random_general(3, 2, 32, seed=seed, rate=0.7)
    baseline = simulate_general(instance, GreedyPendingPolicy(), 4)
    monitors = [EpochMonitor(), CreditMonitor(), DropContainmentMonitor()]
    tracer = Tracer(TeeSink(*monitors))
    monitored = simulate_general(
        instance, GreedyPendingPolicy(), 4, tracer=tracer
    )
    tracer.close()
    assert _cost_fingerprint(baseline) == _cost_fingerprint(monitored)
    # The general engine has no batched eligibility protocol; monitors
    # must stay silent rather than misfire on the reduced vocabulary.
    assert all(monitor.ok for monitor in monitors)


# ------------------------------------------------------ violation mechanics


def _stream(monitor, records):
    for index, record in enumerate(records):
        monitor.emit(
            TraceRecord(index, record[0], record[1], record[2], record[3])
        )


class TestViolations:
    def test_double_eligible_is_flagged(self):
        monitor = EpochMonitor(threshold=2)
        _stream(
            monitor,
            [
                ("event", "eligible", 1, {"color": 0}),
                ("event", "eligible", 2, {"color": 0}),
            ],
        )
        assert not monitor.ok
        assert monitor.violations[0].kind == "double-eligible"

    def test_ineligible_without_eligible_is_flagged(self):
        monitor = EpochMonitor(threshold=2)
        _stream(monitor, [("event", "ineligible", 3, {"color": 1})])
        assert monitor.violations[0].kind == "ineligible-without-eligible"
        assert monitor.violations[0].round_index == 3

    def test_timestamp_regression_is_flagged(self):
        monitor = EpochMonitor(threshold=2)
        _stream(
            monitor,
            [
                ("event", "timestamp", 4, {"color": 0, "timestamp": 8}),
                ("event", "timestamp", 6, {"color": 0, "timestamp": 8}),
            ],
        )
        assert monitor.violations[0].kind == "timestamp-not-increasing"

    def test_per_epoch_drop_cap_is_flagged(self):
        monitor = DropContainmentMonitor()
        monitor.run_info = {"delta": 2}
        _stream(
            monitor,
            [
                (
                    "event",
                    "drop",
                    5,
                    {"color": 0, "count": 3, "eligible": False},
                ),
            ],
        )
        assert monitor.violations[0].kind == "per-epoch-drop-cap"

    def test_raise_policy_raises_at_offending_record(self):
        monitor = EpochMonitor(policy="raise", threshold=2)
        with pytest.raises(MonitorError) as excinfo:
            _stream(
                monitor,
                [
                    ("event", "eligible", 1, {"color": 0}),
                    ("event", "eligible", 2, {"color": 0}),
                ],
            )
        assert excinfo.value.violation.kind == "double-eligible"
        assert excinfo.value.violation.round_index == 2

    def test_ratio_monitor_flags_cost_mismatch(self):
        instance = random_rate_limited(3, 2, 16, seed=0, load=0.5)
        monitor = RatioMonitor(instance)
        monitor.emit(
            TraceRecord(
                0, "span_start", "run", None,
                {"resources": 4, "speed": 1, "delta": 2},
            )
        )
        monitor.emit(
            TraceRecord(1, "event", "reconfig", 0, {"color": 1, "resources": 1})
        )
        monitor.emit(
            TraceRecord(2, "span_end", "run", None, {"total_cost": 99})
        )
        monitor.close()
        assert monitor.violations[0].kind == "cost-reconstruction-mismatch"
        assert monitor.violations[0].data["reconstructed"] == 2

    def test_ratio_monitor_enforces_max_ratio(self):
        instance = random_rate_limited(4, 2, 48, seed=1, load=0.8)
        monitor = RatioMonitor(instance, max_ratio=0.01)
        _monitored_run(instance, DeltaLRUEDF(), 8, [monitor], record="costs")
        kinds = {violation.kind for violation in monitor.violations}
        assert kinds == {"competitive-ratio"}

    def test_close_finalizes_exactly_once(self):
        instance = random_rate_limited(4, 2, 48, seed=2, load=0.8)
        monitor = RatioMonitor(instance, max_ratio=0.01)
        _monitored_run(instance, DeltaLRUEDF(), 8, [monitor], record="costs")
        monitor.close()
        monitor.close()
        assert len(monitor.violations) == 1

    def test_policy_is_validated(self):
        with pytest.raises(ValueError):
            EpochMonitor(policy="panic")

    def test_zero_cost_off_with_online_cost_reports_inf(self):
        # An empty workload has a zero offline lower bound; any online
        # cost against a free optimum is an infinite blowup, which the
        # ratio must report — not a finite number from flooring the
        # denominator at 1.
        from repro.core.instance import BatchMode, make_instance

        instance = make_instance(
            [], {0: 4, 1: 4}, 2, batch_mode=BatchMode.BATCHED, horizon=16
        )
        monitor = RatioMonitor(instance)
        monitor.emit(
            TraceRecord(
                0, "span_start", "run", None,
                {"resources": 4, "speed": 1, "delta": 2},
            )
        )
        assert monitor.lower_bound == 0
        monitor.emit(
            TraceRecord(1, "event", "reconfig", 0, {"color": 0, "resources": 1})
        )
        assert monitor.ratio == float("inf")

    def test_zero_cost_off_and_online_ties_at_one(self):
        # Zero online cost against a zero lower bound is a tie (1.0),
        # matching SweepResult.relative_to — not an understated 0.0.
        from repro.core.instance import BatchMode, make_instance

        instance = make_instance(
            [], {0: 4, 1: 4}, 2, batch_mode=BatchMode.BATCHED, horizon=16
        )
        monitor = RatioMonitor(instance, max_ratio=2.0)
        result = _monitored_run(
            instance, DeltaLRUEDF(), 4, [monitor], record="costs"
        )
        assert result.cost.total == 0
        assert monitor.lower_bound == 0
        assert monitor.ratio == 1.0
        assert monitor.ok


# ------------------------------------------------------------ diff_traces


def _trace_records(seed, delta=2):
    instance = random_rate_limited(
        4, delta, 64, seed=seed, load=0.6, bound_choices=(2, 4, 8)
    )
    sink = MemorySink(capacity=None)
    simulate(
        instance, DeltaLRUEDF(), 8, record="costs", tracer=Tracer(sink)
    )
    return sink.records


class TestDiffTraces:
    def test_same_seed_runs_are_identical(self):
        diff = diff_traces(_trace_records(3), _trace_records(3))
        assert diff.identical
        assert diff.first_divergence is None
        assert diff.cost_delta == 0
        assert "identical" in render_trace_diff(diff)

    def test_perturbed_runs_diverge_with_attribution(self):
        diff = diff_traces(_trace_records(3), _trace_records(4))
        assert not diff.identical
        assert diff.first_divergence is not None
        assert diff.record_a is not None and diff.record_b is not None
        text = render_trace_diff(diff)
        assert f"#{diff.first_divergence}" in text
        if diff.cost_delta != 0:
            assert "attribution" in text

    def test_prefix_divergence_reports_stream_end(self):
        a = _trace_records(3)
        diff = diff_traces(a, a[:-2])
        assert not diff.identical
        assert diff.first_divergence == len(a) - 2
        assert diff.record_b is None
        assert "<stream ended>" in render_trace_diff(diff)

    def test_wall_seconds_is_volatile(self):
        base = [
            TraceRecord(0, "span_start", "run", None, {"delta": 2}),
            TraceRecord(1, "span_end", "run", None, {"wall_seconds": 0.5}),
        ]
        other = [
            TraceRecord(0, "span_start", "run", None, {"delta": 2}),
            TraceRecord(1, "span_end", "run", None, {"wall_seconds": 9.9}),
        ]
        assert diff_traces(base, other).identical

    def test_serial_and_parallel_collection_diff_clean(self):
        # A parallel run of the same cell collects records in a worker
        # and replays them through the orchestrator tracer with a worker
        # tag (map_traced); a serial run records worker=None.  The tag
        # carries no semantic content and must not register as a
        # divergence.
        serial = _trace_records(5)
        sink = MemorySink(capacity=None)
        Tracer(sink).replay(serial, worker="restart-0/seed-5")
        parallel = sink.records
        assert all(r.worker == "restart-0/seed-5" for r in parallel)
        diff = diff_traces(serial, parallel)
        assert diff.identical
        assert diff.cost_delta == 0

    def test_nested_payload_timings_are_volatile(self):
        # Volatile keys are stripped recursively: per-phase profiling
        # durations ride inside nested snapshot payloads, and pids may
        # tag worker-produced records.
        def span(seconds, pid, calls=5):
            return [
                TraceRecord(0, "span_start", "run", None, {"delta": 2}),
                TraceRecord(
                    1, "span_end", "run", None,
                    {
                        "phases": {"drop": {"seconds": seconds, "calls": calls}},
                        "pid": pid,
                    },
                ),
            ]

        assert diff_traces(span(0.1, 123), span(9.9, 999)).identical
        # A genuine nested difference must still diverge.
        assert not diff_traces(span(0.1, 123), span(0.1, 123, calls=6)).identical

    def test_costs_attributed_by_phase_color_and_range(self):
        a = [
            TraceRecord(0, "span_start", "run", None, {"delta": 3, "horizon": 16}),
            TraceRecord(1, "event", "reconfig", 2, {"color": 1, "resources": 2}),
            TraceRecord(2, "span_end", "run", None, {}),
        ]
        b = [
            TraceRecord(0, "span_start", "run", None, {"delta": 3, "horizon": 16}),
            TraceRecord(1, "event", "drop", 9, {"color": 2, "count": 4}),
            TraceRecord(2, "span_end", "run", None, {}),
        ]
        diff = diff_traces(a, b, num_ranges=2)
        assert diff.cost_a == 6  # Δ=3 × 2 resources
        assert diff.cost_b == 4  # 4 drops × unit cost
        assert diff.by_phase == {"drop": (0, 4), "reconfig": (6, 0)}
        assert diff.by_color == {1: (6, 0), 2: (0, 4)}
        assert diff.by_round_range == {(0, 7): (6, 0), (8, 15): (0, 4)}


# -------------------------------------------------------------- exporters


class TestPrometheusText:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("engine.drops").inc(3)
        registry.gauge("monitor.competitive_ratio").set(1.5)
        registry.histogram("engine.queue_depth", (1, 2)).observe(2, n=4)
        text = prometheus_text(registry)
        assert "# TYPE repro_engine_drops_total counter" in text
        assert "repro_engine_drops_total 3" in text
        assert "repro_monitor_competitive_ratio 1.5" in text
        # Cumulative buckets: nothing <=1, everything <=2.
        assert 'repro_engine_queue_depth_bucket{le="1"} 0' in text
        assert 'repro_engine_queue_depth_bucket{le="2"} 4' in text
        assert 'repro_engine_queue_depth_bucket{le="+Inf"} 4' in text
        assert "repro_engine_queue_depth_sum 8" in text
        assert "repro_engine_queue_depth_count 4" in text
        assert text.endswith("\n")

    def test_accepts_snapshots_and_sanitizes_names(self):
        registry = MetricsRegistry()
        registry.counter("engine.cache-hits.99th").inc()
        text = prometheus_text(registry.snapshot(), prefix="x")
        assert "x_engine_cache_hits_99th_total 1" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestChromeTrace:
    def _records(self):
        return [
            TraceRecord(0, "span_start", "run", None, {"algorithm": "x"}),
            TraceRecord(1, "event", "drop", 3, {"color": 1, "count": 2}),
            TraceRecord(2, "event", "wrap", 4, {"color": 0}, "w1"),
            TraceRecord(3, "span_end", "run", None, {}),
        ]

    def test_phases_threads_and_clock(self):
        payload = chrome_trace_events(self._records())
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert [e["ph"] for e in events] == ["B", "i", "i", "E"]
        assert [e["ts"] for e in events] == [0, 1, 2, 3]
        assert events[1]["args"] == {"color": 1, "count": 2, "round": 3}
        # The worker-tagged record runs on its own thread track.
        assert events[2]["tid"] != events[1]["tid"]
        names = {
            m["args"]["name"]
            for m in payload["traceEvents"]
            if m["ph"] == "M"
        }
        assert names == {"main", "w1"}

    def test_write_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(self._records(), path)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        assert loaded["displayTimeUnit"] == "ms"

    def test_engine_trace_exports_cleanly(self):
        instance = random_rate_limited(4, 2, 48, seed=0, load=0.6)
        sink = MemorySink(capacity=None)
        simulate(
            instance, DeltaLRUEDF(), 8, record="costs", tracer=Tracer(sink)
        )
        payload = chrome_trace_events(sink.records)
        spans = [e for e in payload["traceEvents"] if e["ph"] in "BE"]
        # Every span that opened also closed.
        assert sum(1 for e in spans if e["ph"] == "B") == sum(
            1 for e in spans if e["ph"] == "E"
        )
