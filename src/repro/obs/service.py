"""Live ops surface: a threaded HTTP service over the observability state.

The ROADMAP's streaming north star makes the Prometheus exporter and
monitors "the live ops surface" — this module is that surface.  A
long-running session (a big ``run_matrix``, an adversary search, a
future streaming scheduler) keeps one :class:`OpsState` and serves it
with :class:`OpsService`, a stdlib ``http.server`` running in a daemon
thread:

* ``GET /metrics`` — live Prometheus text exposition of the aggregated
  :class:`~repro.obs.metrics.MetricsRegistry`.  Worker snapshots fold in
  through :meth:`OpsState.publish_snapshot` (the existing atomic
  ``merge_snapshot``), so an external Prometheus scraping this endpoint
  sees exactly the merged in-process registry plus a few ``ops_*``
  self-metrics.
* ``GET /health`` — JSON liveness/correctness summary: HTTP 200 while
  no monitor violation or trace-integrity error has been reported *and*
  no critical alert rule is firing, HTTP 503 otherwise (scrape-side
  alerting needs no body parsing).
* ``GET /runs`` — the run registry as JSON (``?limit=N`` and
  ``?kind=simulate|search|offline|experiment|matrix`` filter); ``GET
  /runs/<id>`` one record by (abbreviable) id.
* ``GET /series`` — the latest published
  :class:`~repro.obs.timeseries.SeriesRecorder` snapshot (ring-buffered
  metric history; ``?name=PREFIX`` filters series by name prefix).
* ``GET /alerts`` — the latest published
  :class:`~repro.obs.alerts.AlertEngine` payload (rule states, firing
  set, fire/resolve events).

Everything is stdlib-only and thread-safe: handlers run on the server's
threads while the simulation publishes from its own, synchronized on one
lock inside :class:`OpsState`.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.parse import parse_qs, urlparse

from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.registry import RunRegistry
from repro.obs.timeseries import SERIES_SCHEMA


class OpsState:
    """Shared, lock-protected observability state behind the service.

    One instance aggregates everything a scrape needs: the merged
    metrics registry, monitor/trace health counters, and (optionally)
    the persistent run registry.  All mutating entry points take the
    internal lock, so any number of worker callbacks and HTTP handler
    threads can interleave safely.
    """

    def __init__(self, *, run_registry: RunRegistry | None = None) -> None:
        self._lock = threading.RLock()
        self.metrics = MetricsRegistry()
        self.run_registry = run_registry
        self.started = time.time()
        self.monitor_violations = 0
        self.trace_integrity_errors = 0
        self.snapshots_merged = 0
        self.scrapes = 0
        self.runs_recorded = 0
        self.stream_status: dict[str, Any] | None = None
        self.stream_updates = 0
        self.series_snapshot: dict[str, Any] | None = None
        self.series_updates = 0
        self.alerts_snapshot: dict[str, Any] | None = None
        self.alerts_updates = 0

    # ------------------------------------------------------------ publish

    def publish_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold one worker registry snapshot into the live registry.

        Delegates to the validate-then-apply
        :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`, so a
        corrupt snapshot raises without half-merging; holding the lock
        makes the merge atomic with respect to concurrent scrapes.
        """
        with self._lock:
            self.metrics.merge_snapshot(snapshot)
            self.snapshots_merged += 1

    def report_violations(self, count: int) -> None:
        """Report ``count`` monitor violations (0 is a no-op)."""
        if count:
            with self._lock:
                self.monitor_violations += count

    def report_integrity_error(self) -> None:
        with self._lock:
            self.trace_integrity_errors += 1

    def note_run_recorded(self, count: int = 1) -> None:
        with self._lock:
            self.runs_recorded += count

    def publish_stream(self, status: Mapping[str, Any]) -> None:
        """Replace the live streaming-session status (served at ``/stream``).

        Streaming drivers call this after each segment/checkpoint with a
        plain JSON-safe mapping (round, offered/admitted/rejected, cost,
        last checkpoint); the service only stores and serves it.
        """
        with self._lock:
            self.stream_status = dict(status)
            self.stream_updates += 1

    def publish_series(self, snapshot: Mapping[str, Any]) -> None:
        """Replace the served time-series snapshot (``/series``).

        Producers call this with
        :meth:`~repro.obs.timeseries.SeriesRecorder.snapshot` after each
        sample batch; the service stores a copy, so handler threads
        never touch the live recorder.
        """
        with self._lock:
            self.series_snapshot = dict(snapshot)
            self.series_updates += 1

    def publish_alerts(self, payload: Mapping[str, Any]) -> None:
        """Replace the served alert payload (``/alerts``; feeds /health).

        Expects :meth:`~repro.obs.alerts.AlertEngine.payload`; while the
        stored payload has ``critical_firing`` true, :attr:`healthy`
        goes false and ``/health`` serves 503.
        """
        with self._lock:
            self.alerts_snapshot = dict(payload)
            self.alerts_updates += 1

    # ------------------------------------------------------------- render

    @property
    def critical_alerts_firing(self) -> bool:
        return bool(
            self.alerts_snapshot
            and self.alerts_snapshot.get("critical_firing")
        )

    @property
    def healthy(self) -> bool:
        return (
            self.monitor_violations == 0
            and self.trace_integrity_errors == 0
            and not self.critical_alerts_firing
        )

    def health(self) -> dict[str, Any]:
        with self._lock:
            firing: list[str] = []
            if self.alerts_snapshot:
                firing = list(self.alerts_snapshot.get("firing", []))
            return {
                "status": "ok" if self.healthy else "degraded",
                "uptime_seconds": round(time.time() - self.started, 3),
                "monitor_violations": self.monitor_violations,
                "trace_integrity_errors": self.trace_integrity_errors,
                "alerts_firing": firing,
                "critical_alerts_firing": self.critical_alerts_firing,
                "snapshots_merged": self.snapshots_merged,
                "runs_recorded": self.runs_recorded,
                "metrics_instruments": len(self.metrics.names()),
            }

    def metrics_text(self) -> str:
        """Prometheus exposition: merged registry + ``ops_*`` self-metrics."""
        with self._lock:
            self.scrapes += 1
            body = prometheus_text(self.metrics)
            ops = MetricsRegistry()
            ops.counter("scrapes").inc(self.scrapes)
            ops.counter("snapshots_merged").inc(self.snapshots_merged)
            ops.counter("monitor_violations").inc(self.monitor_violations)
            ops.counter("runs_recorded").inc(self.runs_recorded)
            ops.gauge("uptime_seconds").set(time.time() - self.started)
            ops.gauge("healthy").set(1.0 if self.healthy else 0.0)
        return body + prometheus_text(ops, prefix="ops")

    def stream_payload(self) -> dict[str, Any]:
        with self._lock:
            payload: dict[str, Any] = {
                "schema": "repro-stream/v1",
                "active": self.stream_status is not None,
                "updates": self.stream_updates,
            }
            if self.stream_status is not None:
                payload["status"] = dict(self.stream_status)
        return payload

    def series_payload(self, *, name_prefix: str | None = None) -> dict[str, Any]:
        with self._lock:
            payload: dict[str, Any] = {
                "schema": SERIES_SCHEMA,
                "active": self.series_snapshot is not None,
                "updates": self.series_updates,
            }
            if self.series_snapshot is not None:
                snapshot = dict(self.series_snapshot)
                series = dict(snapshot.get("series", {}))
                if name_prefix is not None:
                    series = {
                        name: data
                        for name, data in series.items()
                        if name.startswith(name_prefix)
                    }
                snapshot["series"] = series
                payload["snapshot"] = snapshot
        return payload

    def alerts_payload(self) -> dict[str, Any]:
        with self._lock:
            payload: dict[str, Any] = {
                "schema": "repro-alerts/v1",
                "active": self.alerts_snapshot is not None,
                "updates": self.alerts_updates,
            }
            if self.alerts_snapshot is not None:
                payload.update(self.alerts_snapshot)
        return payload

    def runs_payload(
        self, *, limit: int | None = None, kind: str | None = None
    ) -> dict[str, Any]:
        if self.run_registry is None:
            return {"schema": "repro-runs/v1", "count": 0, "runs": []}
        records = self.run_registry.records()
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        if limit is not None:
            records = records[-limit:]
        return {
            "schema": "repro-runs/v1",
            "count": len(records),
            "skipped_lines": self.run_registry.skipped_lines,
            "runs": [record.to_dict() for record in records],
        }


class _OpsHandler(BaseHTTPRequestHandler):
    """Routes one request against the server's :class:`OpsState`."""

    server_version = "repro-ops/1"
    protocol_version = "HTTP/1.1"

    # The server attribute is provided by ThreadingHTTPServer; the state
    # rides on it (see OpsService).
    @property
    def state(self) -> OpsState:
        return self.server.ops_state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "ops_verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, "application/json; charset=utf-8", body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route()
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as error:  # noqa: BLE001 - surface as 500
            try:
                self._send_json(500, {"error": str(error)})
            except Exception:  # pragma: no cover
                pass

    def _route(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)
        if path == "/metrics":
            body = self.state.metrics_text().encode("utf-8")
            self._send(
                200, "text/plain; version=0.0.4; charset=utf-8", body
            )
            return
        if path == "/health":
            payload = self.state.health()
            self._send_json(200 if payload["status"] == "ok" else 503, payload)
            return
        if path == "/stream":
            self._send_json(200, self.state.stream_payload())
            return
        if path == "/series":
            prefix = query.get("name", [None])[0]
            self._send_json(
                200, self.state.series_payload(name_prefix=prefix)
            )
            return
        if path == "/alerts":
            self._send_json(200, self.state.alerts_payload())
            return
        if path == "/runs":
            limit = None
            if "limit" in query:
                try:
                    limit = max(0, int(query["limit"][0]))
                except ValueError:
                    self._send_json(400, {"error": "limit must be an integer"})
                    return
            kind = query.get("kind", [None])[0]
            self._send_json(
                200, self.state.runs_payload(limit=limit, kind=kind)
            )
            return
        if path.startswith("/runs/"):
            run_id = path[len("/runs/"):]
            if self.state.run_registry is None:
                self._send_json(404, {"error": "no run registry attached"})
                return
            try:
                record = self.state.run_registry.get(run_id)
            except KeyError as error:
                self._send_json(404, {"error": str(error)})
                return
            self._send_json(200, record.to_dict())
            return
        if path == "/":
            self._send_json(
                200,
                {
                    "service": "repro-ops",
                    "endpoints": [
                        "/metrics",
                        "/health",
                        "/stream",
                        "/series",
                        "/alerts",
                        "/runs",
                        "/runs/<id>",
                    ],
                },
            )
            return
        self._send_json(404, {"error": f"unknown path {path!r}"})


class OpsService:
    """Threaded HTTP server over an :class:`OpsState`.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  The serving thread is a daemon, so a crashed main
    process never hangs on it; :meth:`stop` shuts down cleanly.  Usable
    as a context manager::

        state = OpsState()
        with OpsService(state) as service:
            ...  # run work, publish snapshots; scrape :service.port
    """

    def __init__(
        self,
        state: OpsState,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.state = state
        self.host = host
        self._requested_port = port
        self.verbose = verbose
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service is not running; call start() first")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "OpsService":
        if self._server is not None:
            raise RuntimeError("service already started")
        server = ThreadingHTTPServer(
            (self.host, self._requested_port), _OpsHandler
        )
        server.daemon_threads = True
        server.ops_state = self.state  # type: ignore[attr-defined]
        server.ops_verbose = self.verbose  # type: ignore[attr-defined]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="repro-ops-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "OpsService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
