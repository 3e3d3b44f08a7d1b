"""The event records of a run, and the §2 events a full run keeps.

The paper's proofs are statements about *runs*: counter wrapping events,
epochs ending, colors entering and leaving the cache.  The engines
report each such event once, as a :class:`TraceRecord` named after it
(:data:`SECTION2_EVENTS`).  That one emission feeds the tracer attached
to the run (the trace bus, :mod:`repro.obs.tracing`), the run's
:class:`Trace` under ``record="full"``, or both, so the live monitors
and the offline auditors (epoch tracking, credit audits, lemma
checkers) read the same records.

This module needs only the standard library, so the engines build
records without importing :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

#: The ten Section 2 events, by record name.  Their payloads (besides
#: the record's round): ``arrival`` and ``drop`` carry ``color`` and
#: ``count``, ``drop`` also ``eligible``; ``wrap`` carries ``color``
#: and the ``count`` of wraps; ``eligible``, ``ineligible`` carry
#: ``color``; ``timestamp`` carries ``color`` and ``timestamp``;
#: ``reconfig`` carries ``color``, ``resources`` and ``mini``;
#: ``execute`` carries ``color``, ``count`` and ``mini``; ``cache_in``
#: carries ``color``, ``section`` and ``mini``; ``cache_out`` carries
#: ``color`` and ``mini``.
SECTION2_EVENTS = (
    "arrival",
    "drop",
    "wrap",
    "eligible",
    "ineligible",
    "timestamp",
    "reconfig",
    "execute",
    "cache_in",
    "cache_out",
)

#: The record kinds of the trace bus.
RECORD_KINDS = ("span_start", "span_end", "event", "annotation")


class TraceRecord:
    """One typed record on the trace bus.

    ``kind`` is one of :data:`RECORD_KINDS`; ``name`` identifies the
    record type (``"run"``, ``"round"``, ``"phase"``, ``"drop"``, ...);
    ``round_index`` is the simulation round the record belongs to
    (``None`` for run-level records); ``data`` carries the record's typed
    payload; ``worker`` tags records that flowed back from a parallel
    worker; ``seq`` is the emitting tracer's monotone sequence number
    (a record's position, in a :class:`Trace`).
    """

    __slots__ = ("seq", "kind", "name", "round_index", "data", "worker")

    def __init__(
        self,
        seq: int,
        kind: str,
        name: str,
        round_index: int | None = None,
        data: Mapping[str, Any] | None = None,
        worker: str | None = None,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.name = name
        self.round_index = round_index
        self.data = dict(data) if data else {}
        self.worker = worker

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-ready representation (used by the JSONL sink)."""
        out: dict[str, Any] = {"seq": self.seq, "kind": self.kind, "name": self.name}
        if self.round_index is not None:
            out["round"] = self.round_index
        if self.worker is not None:
            out["worker"] = self.worker
        out.update(self.data)
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TraceRecord":
        """Inverse of :meth:`to_dict` (used by the trace readers).

        Requires an int ``seq``, a ``kind`` from :data:`RECORD_KINDS`, a
        non-empty str ``name``, and an int ``round`` and a str
        ``worker`` when present; anything else raises ``ValueError``.
        """
        seq, kind, name = raw.get("seq"), raw.get("kind"), raw.get("name")
        round_index, worker = raw.get("round"), raw.get("worker")
        if not _is_int(seq):
            raise ValueError(f"record seq must be an int, not {seq!r}")
        if kind not in RECORD_KINDS:
            raise ValueError(f"record kind must be one of {RECORD_KINDS}, not {kind!r}")
        if not isinstance(name, str) or not name:
            raise ValueError(f"record name must be a non-empty str, not {name!r}")
        if round_index is not None and not _is_int(round_index):
            raise ValueError(f"record round must be an int, not {round_index!r}")
        if worker is not None and not isinstance(worker, str):
            raise ValueError(f"record worker must be a str, not {worker!r}")
        data = {
            key: value
            for key, value in raw.items()
            if key not in ("seq", "kind", "name", "round", "worker")
        }
        return cls(seq, kind, name, round_index, data, worker)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.kind == other.kind
            and self.name == other.name
            and self.round_index == other.round_index
            and self.data == other.data
            and self.worker == other.worker
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f" round={self.round_index}" if self.round_index is not None else ""
        return f"<TraceRecord #{self.seq} {self.kind}:{self.name}{where} {self.data}>"


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Trace:
    """The §2 event records of one ``record="full"`` run, in emission order.

    Each record is an ``event`` named in :data:`SECTION2_EVENTS`, with
    its position as ``seq``; the records equal those an attached tracer
    receives, up to ``seq`` (a tracer numbers its spans and markers
    too).  ``repro.simulation.trace_io.save_run`` writes them in the
    trace bus's JSONL format.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def event(self, name: str, round_index: int | None = None, **data: Any) -> None:
        """Append one event record (the engines' emission call)."""
        records = self.records
        records.append(TraceRecord(len(records), "event", name, round_index, data))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)
