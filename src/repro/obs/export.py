"""Exporters: Prometheus text exposition and Chrome trace-event JSON.

Bridges the in-process observability to standard tooling with zero new
dependencies:

* :func:`prometheus_text` renders a :class:`~repro.obs.metrics.MetricsRegistry`
  (or one of its snapshots) in the Prometheus text exposition format —
  scrapeable as a textfile-collector artifact or diffable in CI.
* :func:`chrome_trace_events` converts span/event records from the trace
  bus into the Chrome trace-event format, loadable in ``chrome://tracing``
  or https://ui.perfetto.dev.  The timeline is in *record-sequence*
  units (1 µs per record): rounds are logical time in this system, so a
  span's width shows how many records — how much activity — it covered,
  and the ``round`` argument on every slice gives the simulation time.

Wired into ``repro obs export``; see docs/observability.md for a
walkthrough.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.core.inputs import malformed, read_json
from repro.obs.tracing import TraceRecord

#: Exposition-format escapes.  HELP text escapes backslash and newline;
#: label *values* additionally escape the double quote that delimits
#: them.  (Label names are sanitized, not escaped — the format allows
#: no escapes there.)
_HELP_ESCAPES = str.maketrans({"\\": r"\\", "\n": r"\n"})
_LABEL_ESCAPES = str.maketrans({"\\": r"\\", "\n": r"\n", '"': r"\""})


def escape_help(text: str) -> str:
    """Escape ``\\`` and newlines for a ``# HELP`` line."""
    return str(text).translate(_HELP_ESCAPES)


def escape_label_value(value: str) -> str:
    """Escape ``\\``, newlines, and ``"`` for a label value."""
    return str(value).translate(_LABEL_ESCAPES)


def _sanitize(name: str) -> str:
    """Metric name to Prometheus charset: dots and dashes to underscores."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value != int(value):
        return repr(value)
    return str(int(value))


def _format_gauge(value: float) -> str:
    value = float(value)
    if math.isinf(value) or math.isnan(value):
        return _format_value(value)
    return repr(value)


def _label_suffix(
    labels: Mapping[str, str] | None, extra: str | None = None
) -> str:
    """``{k="v",...}`` with escaped values, or ``""`` when unlabeled."""
    parts = [
        f'{_sanitize(str(key))}="{escape_label_value(value)}"'
        for key, value in (labels or {}).items()
    ]
    if extra is not None:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(
    source: Any,
    *,
    prefix: str = "repro",
    labels: Mapping[str, str] | None = None,
    help_texts: Mapping[str, str] | None = None,
) -> str:
    """Render metrics in the Prometheus text exposition format.

    ``source`` is a :class:`~repro.obs.metrics.MetricsRegistry` or a
    ``snapshot()`` mapping.  Counters get a ``_total`` suffix, histograms
    the standard cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
    triplet.  Output ends with a trailing newline, per the format spec.

    ``labels`` attaches a constant label set to every series (e.g.
    ``{"worker": tag}`` when exposing per-worker registries side by
    side); values are escaped per the format (``\\`` ``\\n`` ``"``).
    ``help_texts`` maps *unsanitized* instrument names to ``# HELP``
    text, escaped likewise.  Non-finite values render as ``+Inf`` /
    ``-Inf`` / ``NaN``.
    """
    snapshot: Mapping[str, Any]
    if hasattr(source, "snapshot"):
        snapshot = source.snapshot()
    else:
        snapshot = source

    lines: list[str] = []
    suffix = _label_suffix(labels)
    helps = help_texts or {}

    def _head(name: str, metric: str, kind: str) -> None:
        if name in helps:
            lines.append(f"# HELP {metric} {escape_help(helps[name])}")
        lines.append(f"# TYPE {metric} {kind}")

    for name in sorted(snapshot.get("counters", {})):
        metric = f"{prefix}_{_sanitize(name)}_total"
        _head(name, metric, "counter")
        lines.append(
            f"{metric}{suffix} {_format_value(snapshot['counters'][name])}"
        )

    for name in sorted(snapshot.get("gauges", {})):
        metric = f"{prefix}_{_sanitize(name)}"
        _head(name, metric, "gauge")
        lines.append(
            f"{metric}{suffix} {_format_gauge(snapshot['gauges'][name])}"
        )

    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        metric = f"{prefix}_{_sanitize(name)}"
        _head(name, metric, "histogram")
        cumulative = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            cumulative += count
            le = _label_suffix(labels, f'le="{bound:g}"')
            lines.append(f"{metric}_bucket{le} {cumulative}")
        inf = _label_suffix(labels, 'le="+Inf"')
        lines.append(f'{metric}_bucket{inf} {data["count"]}')
        lines.append(f"{metric}_sum{suffix} {_format_value(data['sum'])}")
        lines.append(f"{metric}_count{suffix} {data['count']}")

    return "\n".join(lines) + "\n" if lines else ""


def snapshot_file_prometheus(path: str | Path) -> str:
    """:func:`prometheus_text` of the metrics snapshot JSON file at
    ``path`` (``repro obs monitor --metrics-out``), or an InputError."""
    snapshot = read_json(path, "metrics snapshot")
    with malformed(f"metrics snapshot {path}"):
        return prometheus_text(snapshot)


def chrome_trace_events(
    records: Iterable[TraceRecord], *, pid: int = 1
) -> dict[str, Any]:
    """Convert bus records to the Chrome trace-event JSON object.

    Span records become duration events (``ph: B``/``E``), leaf events
    and annotations become instants (``ph: i``).  Each record advances
    the clock by 1 µs (sequence-time; see the module docstring), worker
    tags map to thread ids so parallel-runner flows render as separate
    tracks, and every slice carries its payload plus the simulation
    ``round`` in ``args``.
    """
    events: list[dict[str, Any]] = []
    tids: dict[str | None, int] = {None: 0}
    for ts, record in enumerate(records):
        tid = tids.get(record.worker)
        if tid is None:
            tid = tids[record.worker] = len(tids)
        args: dict[str, Any] = dict(record.data)
        if record.round_index is not None:
            args["round"] = record.round_index
        if record.kind == "span_start":
            phase = "B"
        elif record.kind == "span_end":
            phase = "E"
        else:
            phase = "i"
        event: dict[str, Any] = {
            "name": record.name,
            "ph": phase,
            "ts": ts,
            "pid": pid,
            "tid": tid,
            "cat": record.kind,
        }
        if phase == "i":
            event["s"] = "t"  # thread-scoped instant
        if args:
            event["args"] = args
        events.append(event)
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": worker if worker is not None else "main"},
        }
        for worker, tid in tids.items()
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    records: Sequence[TraceRecord], path, *, pid: int = 1
) -> int:
    """Write :func:`chrome_trace_events` JSON to ``path``; returns #events."""
    payload = chrome_trace_events(records, pid=pid)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return len(payload["traceEvents"])
