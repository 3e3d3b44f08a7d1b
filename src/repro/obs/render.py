"""Render JSONL traces as round timelines and summary statistics.

Backs the ``repro trace`` and ``repro stats`` subcommands: both consume
the records of one engine run (written by
:class:`~repro.obs.tracing.JsonlSink`, read back with
:func:`~repro.obs.tracing.read_jsonl_trace`) and produce fixed-width
text — no plotting dependencies, diffable in a terminal.

The timeline renders one line per simulated round, leaf events inlined
in emission order, fast-forwarded stretches as explicit skip markers,
and after-the-fact ``epoch`` / ``super_epoch`` annotations attached to
the rounds they anchor on.

Also here: :func:`sparkline` / :func:`render_series`, the terminal view
of :mod:`repro.obs.timeseries` ring buffers — one unicode block-glyph
line per recorded metric series.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.obs.tracing import TraceRecord

#: Compact event glyphs for the timeline, keyed by record name.
_EVENT_LABELS = {
    "drop": lambda d: f"drop c{d.get('color')}x{d.get('count')}",
    "arrival": lambda d: f"arr c{d.get('color')}x{d.get('count')}",
    "wrap": lambda d: f"wrap c{d.get('color')}"
    + (f"x{d['count']}" if d.get("count", 1) != 1 else ""),
    "eligible": lambda d: f"+elig c{d.get('color')}",
    "ineligible": lambda d: f"-elig c{d.get('color')}",
    "reconfig": lambda d: f"reconfig c{d.get('color')}(+{d.get('resources')})",
    "cache_in": lambda d: f"in c{d.get('color')}",
    "cache_out": lambda d: f"out c{d.get('color')}",
    "execute": lambda d: f"exec c{d.get('color')}x{d.get('count')}",
    "cache_hit": lambda d: f"hit:{d.get('target', 'cache')}",
    "fast_forward": lambda d: (
        f">> fast-forward to {d.get('to_round')} ({d.get('rounds')} rounds)"
    ),
    "epoch": lambda d: (
        f"[epoch c{d.get('color')}#{d.get('index')} from {d.get('start')}"
        + ("" if d.get("complete") else " open")
        + "]"
    ),
    "super_epoch": lambda d: (
        f"[super-epoch #{d.get('index')} from {d.get('start')}"
        + ("" if d.get("complete") else " open")
        + "]"
    ),
}


def _label(record: TraceRecord) -> str | None:
    formatter = _EVENT_LABELS.get(record.name)
    if formatter is None:
        return None
    return formatter(record.data)


def render_trace_timeline(
    records: Sequence[TraceRecord], *, max_rounds: int | None = None
) -> str:
    """One line per simulated round, events inlined in emission order."""
    header: TraceRecord | None = None
    footer: TraceRecord | None = None
    # round index -> labels, in first-touch order (annotations land on
    # the round they anchor to even though they are emitted at the end).
    by_round: dict[int, list[str]] = {}
    simulated: list[int] = []
    for record in records:
        if record.name == "run":
            if record.kind == "span_start":
                header = record
            else:
                footer = record
            continue
        if record.name == "round":
            if record.kind == "span_start" and record.round_index is not None:
                simulated.append(record.round_index)
                by_round.setdefault(record.round_index, [])
            continue
        if record.name == "phase":
            continue
        label = _label(record)
        if label is None or record.round_index is None:
            continue
        by_round.setdefault(record.round_index, []).append(label)

    lines: list[str] = []
    if header is not None:
        d = header.data
        lines.append(
            f"run {d.get('algorithm')}  n={d.get('resources')} "
            f"speed={d.get('speed')} record={d.get('record')} "
            f"engine={d.get('engine')} horizon={d.get('horizon')}"
        )
    width = len(str(max(by_round, default=0)))
    shown = 0
    idle_streak = 0

    def flush_idle() -> None:
        nonlocal idle_streak
        if idle_streak:
            lines.append(f"{'':>{width + 6}}  ({idle_streak} idle rounds)")
            idle_streak = 0

    for round_index in sorted(by_round):
        labels = by_round[round_index]
        if not labels:
            idle_streak += 1
            continue
        flush_idle()
        if max_rounds is not None and shown >= max_rounds:
            remaining = sum(
                1 for k in by_round if k > round_index and by_round[k]
            )
            lines.append(f"... ({remaining + 1} more rounds with events)")
            break
        lines.append(f"round {round_index:>{width}}  " + " · ".join(labels))
        shown += 1
    else:
        flush_idle()
    if footer is not None:
        d = footer.data
        lines.append(
            f"total cost {d.get('total_cost')} "
            f"(reconfig {d.get('reconfig_cost')}, drops {d.get('drop_cost')}) "
            f"over {d.get('rounds_executed')} simulated rounds"
        )
    return "\n".join(lines) if lines else "(empty trace)"


def summarize_trace(records: Iterable[TraceRecord]) -> dict:
    """Aggregate counts from one run's records (``repro stats``).

    Round counts come from round spans: without any (a full run's saved
    §2 event records) ``rounds_simulated`` and ``rounds_fast_forwarded``
    are ``None``, not 0.
    """
    totals: dict[str, int] = {}
    drops_by_color: dict[int, int] = {}
    execs_by_color: dict[int, int] = {}
    workers: set[str] = set()
    round_spans = False
    rounds_simulated = 0
    rounds_fast_forwarded = 0
    run_info: dict = {}
    offline_info: dict = {}
    for record in records:
        if record.worker is not None:
            workers.add(record.worker)
        if record.name == "run":
            run_info.update(record.data)
            continue
        if record.name == "offline_solve":
            offline_info.update(record.data)
            continue
        if record.name == "round":
            round_spans = True
            if record.kind == "span_start":
                rounds_simulated += 1
            continue
        if record.name == "phase":
            continue
        totals[record.name] = totals.get(record.name, 0) + 1
        data = record.data
        if record.name == "fast_forward":
            rounds_fast_forwarded += int(data.get("rounds", 0))
        elif record.name == "drop":
            color = data.get("color")
            if color is not None:
                drops_by_color[color] = drops_by_color.get(color, 0) + int(
                    data.get("count", 1)
                )
        elif record.name == "execute":
            color = data.get("color")
            if color is not None:
                execs_by_color[color] = execs_by_color.get(color, 0) + int(
                    data.get("count", 1)
                )
    return {
        "run": run_info,
        "rounds_simulated": rounds_simulated if round_spans else None,
        "rounds_fast_forwarded": rounds_fast_forwarded if round_spans else None,
        "events": totals,
        "drops_by_color": drops_by_color,
        "executions_by_color": execs_by_color,
        "workers": sorted(workers),
        "offline_solve": offline_info,
    }


#: Eight-level block glyphs, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, width: int = 48) -> str:
    """Render values as a unicode sparkline, at most ``width`` glyphs.

    Longer inputs are downsampled by chunk means (deterministic); a flat
    or single-point series renders at the lowest level.  Non-finite
    values clamp to the nearest level instead of raising.
    """
    if width < 1:
        raise ValueError("sparkline width must be at least 1")
    data = [float(value) for value in values]
    if not data:
        return ""
    if len(data) > width:
        chunks: list[float] = []
        for index in range(width):
            lo = index * len(data) // width
            hi = max(lo + 1, (index + 1) * len(data) // width)
            window = data[lo:hi]
            chunks.append(sum(window) / len(window))
        data = chunks
    finite = [value for value in data if math.isfinite(value)]
    low = min(finite) if finite else 0.0
    high = max(finite) if finite else 0.0
    span = high - low
    if span <= 0:
        return _SPARK_GLYPHS[0] * len(data)
    top = len(_SPARK_GLYPHS) - 1
    glyphs = []
    for value in data:
        if not math.isfinite(value):
            level = top if value > 0 else 0
        else:
            level = int((value - low) / span * top)
        glyphs.append(_SPARK_GLYPHS[max(0, min(top, level))])
    return "".join(glyphs)


def render_series(source, *, names: Sequence[str] | None = None, width: int = 48) -> str:
    """Fixed-width sparkline table of recorded metric series.

    ``source`` is a :class:`~repro.obs.timeseries.SeriesRecorder`, a
    recorder/JSONL snapshot dict (``{"schema": "repro-series/v2", ...}``),
    or a plain ``{name: Series}`` mapping.  ``names`` restricts (and
    orders) the rendered series; default is all, sorted.
    """
    from repro.obs.timeseries import (
        Series,
        SeriesRecorder,
        series_from_snapshot,
    )

    if isinstance(source, SeriesRecorder):
        table: dict[str, Series] = dict(source.series)
    elif isinstance(source, Mapping) and "series" in source:
        table = series_from_snapshot(source)
    elif isinstance(source, Mapping):
        table = {
            name: data if isinstance(data, Series) else Series.from_dict(data)
            for name, data in source.items()
        }
    else:
        raise TypeError(
            "render_series takes a SeriesRecorder, a series snapshot "
            f"dict, or a name->Series mapping, not {type(source).__name__}"
        )
    selected = list(names) if names is not None else sorted(table)
    missing = [name for name in selected if name not in table]
    if missing:
        raise KeyError(f"unknown series: {', '.join(missing)}")
    if not selected:
        return "(no series recorded)"
    pad = max(len(name) for name in selected)
    lines = []
    for name in selected:
        series = table[name]
        if not series.points:
            lines.append(f"{name.ljust(pad)}  (empty)")
            continue
        latest = series.points[-1]
        spark = sparkline(series.values(), width=width)
        span = f"[{series.points[0].start}..{latest.end}]"
        note = (
            f"  ({series.compactions} compactions)"
            if series.compactions
            else ""
        )
        lines.append(
            f"{name.ljust(pad)}  {spark}  last={latest.last:g} "
            f"{span}{note}"
        )
    return "\n".join(lines)


def render_trace_stats(records: Sequence[TraceRecord]) -> str:
    """Fixed-width statistics summary of one run's records."""
    if not records:
        return "(empty trace)"
    summary = summarize_trace(records)
    lines: list[str] = []
    run = summary["run"]
    if run:
        lines.append(
            f"run {run.get('algorithm')}  n={run.get('resources')} "
            f"speed={run.get('speed')} record={run.get('record')} "
            f"engine={run.get('engine')} horizon={run.get('horizon')}"
        )
        if "total_cost" in run:
            lines.append(
                f"cost {run['total_cost']} (reconfig {run.get('reconfig_cost')}, "
                f"drops {run.get('drop_cost')})"
            )
    if summary["rounds_simulated"] is None:
        lines.append("rounds: not traced (the trace has no round spans)")
    else:
        lines.append(
            f"rounds: {summary['rounds_simulated']} simulated, "
            f"{summary['rounds_fast_forwarded']} fast-forwarded"
        )
    events = summary["events"]
    if events:
        lines.append("events")
        pad = max(len(name) for name in events)
        for name in sorted(events):
            lines.append(f"  {name.ljust(pad)}  {events[name]}")
    for title, key in (
        ("drops by color", "drops_by_color"),
        ("executions by color", "executions_by_color"),
    ):
        per_color = summary[key]
        if per_color:
            parts = [f"c{color}: {per_color[color]}" for color in sorted(per_color)]
            lines.append(f"{title}: " + "  ".join(parts))
    offline = summary["offline_solve"]
    if offline:
        lines.append(
            f"offline solve ({offline.get('method', '?')}): "
            f"cost {offline.get('cost')}  "
            f"nodes {offline.get('states_explored')}  "
            f"pruned {offline.get('candidates_pruned')}"
            + (
                f"  warm start {offline['warm_start_cost']}"
                if offline.get("warm_start_cost") is not None
                else ""
            )
        )
        sources = offline.get("bound_sources") or {}
        if sources:
            parts = [
                f"{name}: {sources[name]}"
                for name in sorted(sources, key=sources.get, reverse=True)
            ]
            lines.append("  bound sources: " + "  ".join(parts))
    if summary["workers"]:
        lines.append("workers: " + ", ".join(summary["workers"]))
    return "\n".join(lines) if lines else "(empty trace)"
