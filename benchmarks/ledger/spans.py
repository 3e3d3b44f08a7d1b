"""Layer spans recorded from outside the program.

A traced run never edits the library.  It replaces, for the duration of
the run, the public callables a layer is reached through -- a module
attribute (``repro.reductions.distribute.simulate``), a class attribute
(``BatchedEngine.run``) or an attribute of one session's own objects
(``session.ingest.admit``) -- with a wrapper that records a span, and
puts the originals back afterwards.

A span is ``{op, id, parent, name, start, end[, attrs]}``.  Spans of one
timed operation share ``op``; the operation itself is a root span named
``op``.  Spans stay in memory and are written as JSONL at the end.
A layer's time is the sum of its spans' *self* time: duration minus the
time its direct children cover.  Calls are sequential, so children never
overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

_MISSING = object()


class Spans:
    """In-memory span log of one traced workload run."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        sid = len(self.records)
        self.records.append(
            {
                "op": self._op,
                "id": sid,
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": perf_counter(),
                "end": None,
            }
        )
        self._stack.append(sid)
        return sid

    def close(self, sid: int, attrs: dict | None = None) -> None:
        end = perf_counter()
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        self._stack.pop()
        record = self.records[sid]
        record["end"] = end
        if attrs:
            record["attrs"] = attrs

    @contextmanager
    def root(self, op_id: int) -> Iterator[None]:
        """Open the root span of one timed operation."""
        self._op = op_id
        sid = self.open("op")
        try:
            yield
        finally:
            self.close(sid)
            self._op = None

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Callable[[object], dict] | None = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span named ``name``.

        ``attrs`` maps the call's return value to span attributes (for
        example the engine's own ``wall_seconds``); a raising call
        records its span without them.
        """

        def traced(*args, **kwargs):
            sid = self.open(name)
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = attrs(result) if attrs and result is not _MISSING else None
                self.close(sid, extra)

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Callable[[object], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper until restored."""
        raw = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))
        self._patches.append((owner, attr, raw))

    @contextmanager
    def patched(self) -> Iterator["Spans"]:
        """Restore every patch made inside the block when it exits."""
        mark = len(self._patches)
        try:
            yield self
        finally:
            while len(self._patches) > mark:
                owner, attr, raw = self._patches.pop()
                if raw is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)

    def write_jsonl(self, path: Path, workload: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps({"workload": workload, **record}) + "\n")


def self_times(records: list[dict]) -> list[float]:
    """Per-span self time, indexed like ``records`` (ids are indices)."""
    covered = [0.0] * len(records)
    for record in records:
        if record["parent"] is not None:
            covered[record["parent"]] += record["end"] - record["start"]
    return [
        record["end"] - record["start"] - cover
        for record, cover in zip(records, covered)
    ]


def layer_seconds(records: list[dict]) -> dict[str, float]:
    """Summed self time per span name (roots included, as ``op``)."""
    totals: dict[str, float] = defaultdict(float)
    for record, seconds in zip(records, self_times(records)):
        totals[record["name"]] += seconds
    return dict(totals)


def unattributed_fraction(records: list[dict]) -> float:
    """Share of ``op`` root time no named layer span covers."""
    total = own = 0.0
    for record, seconds in zip(records, self_times(records)):
        if record["name"] == "op":
            total += record["end"] - record["start"]
            own += seconds
    return own / total if total > 0 else 0.0


def engine_attrs(backend: str, profiler=None) -> Callable[[object], dict]:
    """Span attributes of one ``simulate()`` call, from its RunResult and
    the ``PhaseProfiler`` passed to that call (if any)."""

    def attrs(result) -> dict:
        out = {
            "backend": backend,
            "run_s": result.wall_seconds,
            "rounds_executed": result.rounds_executed or 0,
            "rounds_total": result.rounds_total or 0,
        }
        if profiler is not None:
            out["phases"] = dict(profiler.seconds)
        return out

    return attrs


def engine_metrics(records: list[dict], n_ops: int) -> dict[str, float]:
    """Split every ``simulate()`` span into construction and round loop.

    ``simulate()`` = engine construction (the vectorized ``_compile``
    included) + the engine's own timed loop (``RunResult.wall_seconds``);
    the difference is construction.  Phase seconds come from the
    ``PhaseProfiler`` attached to the sparse calls of the core workloads;
    ``simulation.phase.other_s`` is the rest of those calls' round loop,
    which no phase covers (calendar, fixed-point probes and skips, and
    the profiler's own bookkeeping).
    """
    out: dict[str, float] = defaultdict(float)
    executed = {"sparse": 0, "vectorized": 0}
    covered = {"sparse": 0, "vectorized": 0}
    for record in records:
        attrs = record.get("attrs") or {}
        backend = attrs.get("backend")
        if backend not in executed:
            continue
        prefix = "simulation." if backend == "sparse" else "simulation.vec."
        duration = record["end"] - record["start"]
        out[prefix + "calls"] += 1
        out[prefix + "construct_s"] += duration - attrs["run_s"]
        out[prefix + "run_s"] += attrs["run_s"]
        out[prefix + "rounds_executed"] += attrs["rounds_executed"]
        executed[backend] += attrs["rounds_executed"]
        covered[backend] += attrs["rounds_total"]
        if "phases" in attrs:
            for phase, seconds in attrs["phases"].items():
                out[f"simulation.phase.{phase}_s"] += seconds
            out["simulation.phase.other_s"] += attrs["run_s"] - sum(
                attrs["phases"].values()
            )
    metrics = {name: value / n_ops for name, value in out.items()}
    if covered["sparse"]:
        metrics["simulation.active_round_fraction"] = (
            executed["sparse"] / covered["sparse"]
        )
    return metrics
