"""Structured trace bus: typed span/event records over pluggable sinks.

The paper's analysis machinery is intrinsically event-shaped — per-round
drop/arrival/reconfiguration/execution phases, epochs ending, counters
wrapping — but until this module the only visibility into a run was the
final :class:`~repro.core.cost.CostBreakdown`.  The trace bus gives the
engines (and the layers above them: adversary search, offline solver,
parallel runtime) a uniform way to narrate what they are doing:

* a :class:`~repro.core.events.TraceRecord` is one typed record — a
  span boundary (``span_start`` / ``span_end``), a leaf ``event``, or
  an ``annotation`` written after the fact by an analysis pass;
* a :class:`Tracer` stamps records with a monotone sequence number and
  an optional worker tag and hands them to a :class:`Sink`;
* sinks are pluggable: :class:`MemorySink` (bounded ring buffer),
  :class:`JsonlSink` (one JSON object per line, durable), and
  :class:`NullSink` (tracing off).

The record hierarchy is ``run → round → phase``: engines open a ``run``
span, a ``round`` span per simulated round, emit ``phase`` markers for
the drop/arrival/reconfigure/execute phases, and leaf events inside
them: the ten Section 2 events of
:data:`~repro.core.events.SECTION2_EVENTS` (the same records a
``record="full"`` run keeps as its :class:`~repro.core.events.Trace`),
plus ``fast_forward`` and ``cache_hit``.  See
``docs/observability.md`` for the full record schema.

Zero-overhead contract
----------------------
A tracer built over a :class:`NullSink` reports ``enabled = False`` and
the engines normalize disabled tracers to ``None`` at construction, so
the hot round loop pays exactly one ``is not None`` check per emission
site — measured under 3% on the EXP-S quick cells and gated in CI by
``benchmarks/check_tracing_overhead.py``.  Tracing is strictly
observational: no sink ever mutates simulation state, and the property
suite asserts traced and untraced runs produce bit-identical
``CostBreakdown``s.

This module needs only the stdlib, :mod:`repro.core.events` and
:mod:`repro.core.inputs`, so every layer can import it without cost.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.events import TraceRecord
from repro.core.inputs import malformed, read_jsonl


class Sink:
    """Destination for trace records.  Subclasses override :meth:`emit`."""

    #: Null sinks advertise themselves so tracers can disable emission
    #: entirely instead of paying per-record formatting costs.
    is_null: bool = False

    def emit(self, record: TraceRecord) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (default: no-op)."""


class NullSink(Sink):
    """Tracing off: a tracer over this sink is ``enabled = False``."""

    is_null = True

    def emit(self, record: TraceRecord) -> None:  # pragma: no cover - never called
        pass


class TeeSink(Sink):
    """Fan one record stream out to several sinks, in order.

    The composition point for the live monitors
    (:mod:`repro.obs.monitor`): ``Tracer(TeeSink(JsonlSink(path),
    monitor))`` writes a durable trace *and* streams every record through
    the monitor, with zero engine changes — the engine still sees one
    ``tracer=``.  A tee of only null sinks is itself null, so a tracer
    over it stays disabled.

    ``close()`` closes the children in order and raises the *first*
    child error after every child has been given its chance to close
    (monitors raise their integrity findings from ``close``).
    """

    def __init__(self, *sinks: Sink) -> None:
        self.sinks: tuple[Sink, ...] = tuple(sinks)
        self.is_null = all(sink.is_null for sink in self.sinks)

    def emit(self, record: TraceRecord) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        first_error: Exception | None = None
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error


class MemorySink(Sink):
    """Bounded in-memory ring buffer of the most recent records.

    When the ring is full the *oldest* record is discarded per new
    emission; :attr:`dropped` counts those discards so a truncated
    capture is never mistaken for a complete one (``repr`` shows the
    count, and callers of :attr:`records` can check it).

    The sink also tracks the span balance of the stream it actually
    received (``span_start`` minus ``span_end``, over all emissions —
    not just those still in the ring).  :meth:`close` raises
    :class:`TraceIntegrityError` when the producer left spans open or
    closed more than it opened, which catches crashed runs and
    mis-nested instrumentation at the point the trace is sealed.
    """

    def __init__(self, capacity: int | None = 65536) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("ring buffer capacity must be positive")
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self.capacity = capacity
        self.dropped = 0
        self.span_depth = 0

    def emit(self, record: TraceRecord) -> None:
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped += 1
        records.append(record)
        if record.kind == "span_start":
            self.span_depth += 1
        elif record.kind == "span_end":
            self.span_depth -= 1

    @property
    def records(self) -> list[TraceRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __repr__(self) -> str:
        dropped = f" dropped={self.dropped}" if self.dropped else ""
        return (
            f"<MemorySink {len(self._records)} records"
            f" capacity={self.capacity}{dropped}>"
        )

    def close(self) -> None:
        if self.span_depth != 0:
            side = "unclosed" if self.span_depth > 0 else "over-closed"
            raise TraceIntegrityError(
                f"trace stream sealed with {abs(self.span_depth)} "
                f"{side} span(s)"
            )


class TraceIntegrityError(RuntimeError):
    """A sealed trace stream failed a structural integrity check."""


class JsonlSink(Sink):
    """Durable sink: one JSON object per line, append-only.

    Keys are emitted in a stable order (``seq``, ``kind``, ``name``,
    ``round``, ``worker``, then payload keys sorted) so traces diff
    cleanly across runs.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")

    def emit(self, record: TraceRecord) -> None:
        flat = record.to_dict()
        head = {
            key: flat.pop(key)
            for key in ("seq", "kind", "name", "round", "worker")
            if key in flat
        }
        head.update((key, flat[key]) for key in sorted(flat))
        self._handle.write(json.dumps(head) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlSink":  # pragma: no cover - convenience
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl_trace(
    path: str | Path, *, strict: bool = True
) -> list[TraceRecord]:
    """Load the records of a JSONL trace written by :class:`JsonlSink`.

    ``strict=False`` drops a torn trailing line, the crash debris of
    :mod:`repro.core.inputs`' torn-tail rule.  Any other damage, a line
    that is not a record (see :meth:`TraceRecord.from_dict`) included,
    raises :class:`~repro.core.inputs.InputError` naming the file and
    line.
    """
    records: list[TraceRecord] = []
    lines = read_jsonl(path, "trace file", torn_tail=not strict)
    for number, raw in lines.rows:
        with malformed(f"trace file {path}", number):
            records.append(TraceRecord.from_dict(raw))
    return records


class Tracer:
    """Front end of the trace bus: stamps records and hands them to a sink.

    A tracer over a :class:`NullSink` is *disabled* (``enabled`` is
    False); emission methods on a disabled tracer are no-ops, and the
    engines additionally normalize disabled tracers to ``None`` so their
    hot loops pay only a ``None`` check.
    """

    __slots__ = ("sink", "enabled", "worker", "_seq")

    def __init__(self, sink: Sink | None = None, *, worker: str | None = None) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.enabled = not self.sink.is_null
        self.worker = worker
        self._seq = 0

    def _emit(self, kind: str, name: str, round_index: int | None, data) -> None:
        if not self.enabled:
            return
        record = TraceRecord(self._seq, kind, name, round_index, data, self.worker)
        self._seq += 1
        self.sink.emit(record)

    def event(self, name: str, round_index: int | None = None, **data: Any) -> None:
        """Emit a leaf event record."""
        self._emit("event", name, round_index, data)

    def begin(self, name: str, round_index: int | None = None, **data: Any) -> None:
        """Open a span (``run``, ``round``, ...)."""
        self._emit("span_start", name, round_index, data)

    def end(self, name: str, round_index: int | None = None, **data: Any) -> None:
        """Close the innermost span of ``name``."""
        self._emit("span_end", name, round_index, data)

    def annotation(self, name: str, round_index: int | None = None, **data: Any) -> None:
        """Emit an after-the-fact annotation (analysis passes, epochs)."""
        self._emit("annotation", name, round_index, data)

    def replay(
        self, records: Iterable[TraceRecord], *, worker: str | None = None
    ) -> int:
        """Re-emit ``records`` (e.g. collected in a parallel worker).

        Each record is re-stamped with this tracer's sequence counter;
        ``worker`` overrides the record's worker tag so orchestrators can
        attribute records to the worker seed/id that produced them.
        Returns the number of records replayed.
        """
        count = 0
        for record in records:
            if not self.enabled:
                break
            stamped = TraceRecord(
                self._seq,
                record.kind,
                record.name,
                record.round_index,
                record.data,
                worker if worker is not None else record.worker,
            )
            self._seq += 1
            self.sink.emit(stamped)
            count += 1
        return count

    def close(self) -> None:
        """Close the underlying sink."""
        self.sink.close()
