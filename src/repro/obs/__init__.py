"""Observability: structured tracing, metrics registry, profiling hooks.

Three dependency-free layers, all strictly observational (attaching any
of them never changes a computed cost — property-tested):

* :mod:`repro.obs.tracing` — the trace bus: typed span/event records
  (run → round → phase, plus reconfigure/drop/execute/fast-forward/
  cache-hit events) over pluggable sinks (ring buffer, JSONL, null).
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  in a named registry; snapshots feed the telemetry payloads
  (``BENCH_engine.json`` schema v3).
* :mod:`repro.obs.profiling` — per-phase wall-clock attribution for the
  engine cores and the ``--profile`` flame table.
* :mod:`repro.obs.monitor` — live invariant monitors: sinks that
  reconstruct the paper's epoch/credit structure from the record stream
  and check the Lemma 3.3–3.17 budgets online, emitting typed
  :class:`~repro.obs.monitor.Violation` findings.
* :mod:`repro.obs.analyze` — trace diffing with cost-delta attribution
  by phase/color/round-range.
* :mod:`repro.obs.export` — Prometheus text exposition and Chrome
  trace-event / Perfetto JSON.
* :mod:`repro.obs.registry` — crash-safe, append-only run registry
  (JSONL segments) recording a :class:`~repro.obs.registry.RunRecord`
  per simulate/search/offline invocation, plus run diffing.
* :mod:`repro.obs.service` — threaded stdlib HTTP ops service exposing
  ``/metrics`` (Prometheus), ``/health``, ``/stream``, ``/series``,
  ``/alerts``, and ``/runs``.
* :mod:`repro.obs.sampling` — seeded deterministic round-level trace
  sampling with an adaptive overhead-bounding controller; monitor
  events and run/phase spans are always kept.
* :mod:`repro.obs.timeseries` — ring-buffered, compacting metric
  time-series sampled from a registry on a deterministic round clock,
  with schema-tagged JSONL persistence and sparkline rendering
  (:func:`~repro.obs.render.render_series`).
* :mod:`repro.obs.alerts` — declarative threshold / rate-of-change /
  stall rules over recorded series, evaluated as a pure function of the
  sample sequence so serial, parallel, and resumed runs fire identical
  alerts.

Entry points: pass ``tracer=`` / ``registry=`` / ``profiler=`` /
``recorder=`` to :func:`repro.simulate` / :func:`repro.simulate_general`
/ :func:`repro.analysis.adversary_search.search_adversary` /
:func:`repro.offline.optimal.optimal_offline` /
:func:`repro.experiments.sweeps.run_matrix`, or use the CLI
(``repro record`` / ``repro trace`` / ``repro stats`` /
``repro obs monitor|diff|export`` / ``repro runs list|show|diff`` /
``repro serve``).
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    evaluate_rules,
    example_rules,
    load_rules,
    rules_to_json,
)
from repro.obs.analyze import TraceDiff, diff_traces, render_trace_diff
from repro.obs.export import (
    chrome_trace_events,
    prometheus_text,
    snapshot_file_prometheus,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    POW2_BUCKETS,
    render_metrics,
)
from repro.obs.monitor import (
    CreditMonitor,
    DropContainmentMonitor,
    EpochMonitor,
    MonitorError,
    RatioMonitor,
    SuperEpochCreditMonitor,
    TraceMonitor,
    Violation,
    standard_monitors,
)
from repro.obs.profiling import PhaseProfiler, flame_table
from repro.obs.registry import (
    RegistryError,
    RegistrySink,
    RunDiff,
    RunRecord,
    RunRegistry,
    diff_runs,
    instance_digest,
    render_run,
    render_run_diff,
    render_run_list,
)
from repro.obs.render import render_series, sparkline
from repro.obs.sampling import (
    MONITOR_EVENT_NAMES,
    SamplingController,
    SamplingSink,
    SamplingTracer,
    sample_records,
)
from repro.obs.service import OpsService, OpsState
from repro.obs.timeseries import (
    Series,
    SeriesPoint,
    SeriesRecorder,
    read_series_jsonl,
    series_from_snapshot,
    write_series_jsonl,
)
from repro.obs.tracing import (
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    TeeSink,
    TraceIntegrityError,
    TraceRecord,
    Tracer,
    read_jsonl_trace,
)

__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "Counter",
    "CreditMonitor",
    "DropContainmentMonitor",
    "EpochMonitor",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MONITOR_EVENT_NAMES",
    "MemorySink",
    "MetricsRegistry",
    "MonitorError",
    "NullSink",
    "OpsService",
    "OpsState",
    "POW2_BUCKETS",
    "PhaseProfiler",
    "RatioMonitor",
    "RegistryError",
    "RegistrySink",
    "RunDiff",
    "RunRecord",
    "RunRegistry",
    "SamplingController",
    "SamplingSink",
    "SamplingTracer",
    "Series",
    "SeriesPoint",
    "SeriesRecorder",
    "Sink",
    "SuperEpochCreditMonitor",
    "TeeSink",
    "TraceDiff",
    "TraceIntegrityError",
    "TraceMonitor",
    "TraceRecord",
    "Tracer",
    "Violation",
    "chrome_trace_events",
    "diff_runs",
    "diff_traces",
    "evaluate_rules",
    "example_rules",
    "flame_table",
    "instance_digest",
    "load_rules",
    "prometheus_text",
    "snapshot_file_prometheus",
    "read_jsonl_trace",
    "read_series_jsonl",
    "render_metrics",
    "render_run",
    "render_run_diff",
    "render_run_list",
    "render_series",
    "render_trace_diff",
    "rules_to_json",
    "sample_records",
    "series_from_snapshot",
    "sparkline",
    "standard_monitors",
    "write_chrome_trace",
    "write_series_jsonl",
]
