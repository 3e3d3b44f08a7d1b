"""Persistent run registry: crash-safe history of every invocation.

Until this module, a run's outcome — which instance, which engine and
scheme, what it cost, how long it took, whether the monitors objected —
evaporated when the process exited.  The registry gives the repo the
queryable history a long-running service assumes:

* a :class:`RunRecord` is one frozen summary of a simulate / search /
  offline / experiment invocation (instance digest, engine, scheme,
  seed, cost breakdown, wall clock, monitor verdict counts, optional
  metrics snapshot);
* a :class:`RunRegistry` is an append-only store of such records under
  one directory: each *writer* owns its own JSONL segment file, so
  concurrent appends from :class:`~repro.runtime.parallel.ParallelRunner`
  worker processes never interleave bytes, and a reader merges all
  segments ordered by record timestamp;
* a :class:`RegistrySink` is the recorder hook the pipelines accept
  (``recorder=``): it knows how to turn a
  :class:`~repro.simulation.engine.RunResult`, a
  :class:`~repro.analysis.adversary_search.SearchResult`, or an
  :class:`~repro.offline.optimal.OptimalResult` into a record.

Crash safety
------------
Appends are single ``write()`` calls of one newline-terminated line,
flushed immediately (``fsync=True`` additionally forces the page cache
out per append).  A crash — including ``kill -9`` — can therefore tear
at most the *trailing* line of the crashed writer's segment; readers
skip such torn tails by default (``strict=False``, the torn-tail rule
of :mod:`repro.core.inputs`) and report them via
:attr:`RunRegistry.skipped_lines`, so every fully written record
survives.  Any other line that does not decode, a complete final line
included, is real corruption and raises :class:`RegistryError` even in
lax mode.

This module needs only the stdlib and :mod:`repro.core.inputs`, and
imports nothing from the simulation layers (records are built by
duck-typing), so every layer can depend on it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import UnionType
from typing import Any, Iterable, Mapping, get_args, get_origin, get_type_hints

from repro.core.inputs import InputError, UnknownIdError, malformed, read_jsonl

#: Schema tag stamped into every record line.
RUN_SCHEMA = "repro-run/v1"

#: Recognized invocation kinds (free-form kinds are allowed but these
#: are what the built-in recorders emit).
RUN_KINDS = ("simulate", "matrix", "search", "offline", "experiment")


#: Record fields written even when empty.
_ALWAYS_WRITTEN = ("kind", "created", "cost", "wall_seconds")


class RegistryError(InputError):
    """A registry segment failed a structural integrity check, or a
    directory holds no registry to read."""


def instance_digest(instance: Any) -> str:
    """Stable SHA-256 content address of an :class:`~repro.core.instance.Instance`.

    Two instances digest equal iff they describe the same problem: the
    same job multiset (arrival, color, delay bound), delay-bound
    declarations, cost model, batch mode, and horizon.  The display
    ``name`` is deliberately excluded — renaming a workload does not
    change what was run.
    """
    spec = instance.spec
    payload = {
        "jobs": sorted(
            (job.arrival, job.color, job.delay_bound)
            for job in instance.sequence
        ),
        "bounds": sorted(spec.delay_bounds.items()),
        "cost": (spec.cost.reconfig_cost, spec.cost.drop_cost),
        "mode": getattr(spec.batch_mode, "name", str(spec.batch_mode)),
        "horizon": instance.horizon,
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def cost_summary(cost: Any) -> dict[str, int]:
    """JSON-ready summary of a :class:`~repro.core.cost.CostBreakdown`."""
    return {
        "total": cost.total,
        "reconfig_cost": cost.reconfig_cost,
        "drop_cost": cost.drop_cost,
        "num_reconfigs": cost.num_reconfigs,
        "num_drops": cost.num_drops,
        "num_eligible_drops": cost.num_eligible_drops,
        "num_ineligible_drops": cost.num_ineligible_drops,
    }


def _new_run_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclass
class RunRecord:
    """One recorded invocation.  All fields are JSON-ready scalars/dicts."""

    kind: str
    run_id: str = field(default_factory=_new_run_id)
    created: float = field(default_factory=time.time)
    #: Workload identity.
    instance_name: str = ""
    instance_digest: str = ""
    horizon: int | None = None
    num_jobs: int | None = None
    num_colors: int | None = None
    #: Configuration.
    engine: str | None = None
    scheme: str | None = None
    seed: int | None = None
    num_resources: int | None = None
    speed: int | None = None
    record_mode: str | None = None
    #: Outcome.
    cost: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    rounds_executed: int | None = None
    monitor_violations: int = 0
    monitors: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, Any] | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"schema": RUN_SCHEMA, "run_id": self.run_id}
        for key in (f.name for f in fields(self)):
            value = getattr(self, key)
            if value not in (None, {}, "") or key in _ALWAYS_WRITTEN:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "RunRecord":
        schema = raw.get("schema")
        if schema != RUN_SCHEMA:
            raise RegistryError(
                f"unsupported run-record schema {schema!r} "
                f"(expected {RUN_SCHEMA!r})"
            )
        if "kind" not in raw:
            raise RegistryError("run record is missing its kind")
        values = {f.name: raw[f.name] for f in fields(cls) if f.name in raw}
        for name, value in values.items():
            accepted, described = _FIELD_TYPES[name]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise RegistryError(
                    f"run record field {name!r} must be {described}, got "
                    f"{json.dumps(value)}"
                )
        return cls(**values)

    @property
    def total_cost(self) -> int | None:
        return self.cost.get("total")

    def describe(self) -> str:
        """One human line (used by ``repro runs list``)."""
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.created))
        cost = self.cost.get("total")
        bits = [
            self.run_id,
            when,
            f"{self.kind:<10}",
            f"{(self.scheme or '-'):<12}",
            f"{(self.engine or '-'):<10}",
            f"cost={cost if cost is not None else '-':<8}",
            f"{self.wall_seconds * 1e3:8.1f}ms",
        ]
        if self.monitor_violations:
            bits.append(f"VIOLATIONS={self.monitor_violations}")
        name = self.instance_name or self.instance_digest
        if name:
            bits.append(name)
        return "  ".join(str(b) for b in bits)


_JSON_NAMES = {
    str: "a string",
    int: "an integer",
    float: "a number",
    dict: "an object",
    type(None): "null",
}


def _accepted(hint) -> tuple[tuple[type, ...], str]:
    """The decoded JSON types a field annotated ``hint`` accepts, and
    their description."""
    kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    kinds = tuple(get_origin(kind) or kind for kind in kinds)
    described = " or ".join(_JSON_NAMES[kind] for kind in kinds)
    return (kinds + (int,) if float in kinds else kinds), described


#: Each record field's accepted types and their description; never
#: ``bool``, which no field is and ``isinstance`` counts as an int.
_FIELD_TYPES = {
    name: _accepted(hint) for name, hint in get_type_hints(RunRecord).items()
}


class RunRegistry:
    """Append-only registry of :class:`RunRecord` under one directory.

    Each :class:`RunRegistry` *instance* lazily opens its own segment
    file (named after pid + a random tag) on first append and rotates it
    after ``segment_records`` lines, so any number of processes can
    append to the same directory without locking: a segment has exactly
    one writer, and POSIX append-mode single-``write()`` lines never
    interleave within it.

    Reading (:meth:`records`, :meth:`get`, :meth:`last`) re-scans the
    directory and merges all segments ordered by ``created`` timestamp
    (ties broken by run id), building the in-memory index on the fly.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        segment_records: int = 512,
        fsync: bool = False,
    ) -> None:
        if segment_records <= 0:
            raise ValueError("segment_records must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        self.fsync = fsync
        self._handle = None
        self._written = 0
        self._segment_seq = 0
        self._writer_tag = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        #: Lines skipped as torn tails by the most recent scan.
        self.skipped_lines = 0

    @classmethod
    def existing(cls, root: str | Path) -> "RunRegistry":
        """Open the registry at ``root`` for reading, creating nothing;
        raises :class:`RegistryError` when ``root`` holds no segments."""
        if not any(Path(root).glob("seg-*.jsonl")):
            raise RegistryError(
                f"no run registry at {root}: record runs into it first "
                "(--registry-dir)"
            )
        return cls(root)

    # ------------------------------------------------------------- writing

    def _open_segment(self):
        self._segment_seq += 1
        path = self.root / f"seg-{self._writer_tag}-{self._segment_seq:04d}.jsonl"
        # "x" guards against the astronomically unlikely tag collision.
        return path.open("x", encoding="utf-8")

    def append(self, record: RunRecord) -> RunRecord:
        """Durably append one record; returns it for chaining."""
        if self._handle is None or self._written >= self.segment_records:
            self.close()
            self._handle = self._open_segment()
            self._written = 0
        line = json.dumps(record.to_dict(), separators=(",", ":"), sort_keys=True)
        # One write() of one terminated line: a crash tears at most the
        # trailing line, never an earlier record.
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._written += 1
        return record

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- reading

    def segments(self) -> list[Path]:
        return sorted(self.root.glob("seg-*.jsonl"))

    def records(self, *, strict: bool = False) -> list[RunRecord]:
        """All records across all segments, oldest first.

        ``strict=False`` (default) skips a torn trailing line per
        segment — the crash-safe read mode; ``strict=True`` raises
        :class:`RegistryError` on any undecodable line.
        """
        self.skipped_lines = 0
        out: list[RunRecord] = []
        for path in self.segments():
            try:
                lines = read_jsonl(path, "run-registry segment", torn_tail=not strict)
            except InputError as error:
                raise RegistryError(str(error)) from error
            self.skipped_lines += lines.torn
            for number, raw in lines.rows:
                with malformed(f"run-registry segment {path}", number, RegistryError):
                    out.append(RunRecord.from_dict(raw))
        out.sort(key=lambda r: (r.created, r.run_id))
        return out

    def get(self, run_id: str, *, strict: bool = False) -> RunRecord:
        """Record by (possibly abbreviated, unambiguous) run id; any other
        id raises :class:`~repro.core.inputs.UnknownIdError` (a KeyError)."""
        matches = [
            record
            for record in self.records(strict=strict)
            if record.run_id == run_id or record.run_id.startswith(run_id)
        ]
        exact = [r for r in matches if r.run_id == run_id]
        if len(exact) > 1:
            raise UnknownIdError(
                f"run id {run_id!r} matches {len(exact)} records in "
                f"{self.root}; the registry holds duplicate run ids"
            )
        if exact:
            return exact[0]
        if not matches:
            raise UnknownIdError(f"no run {run_id!r} in registry {self.root}")
        if len(matches) > 1:
            raise UnknownIdError(
                f"run id {run_id!r} is ambiguous in {self.root}: "
                + ", ".join(r.run_id for r in matches[:5])
            )
        return matches[0]

    def last(
        self, n: int | None = 10, *, kind: str | None = None
    ) -> list[RunRecord]:
        """The ``n`` most recent records (of ``kind``), oldest first:
        none for ``n = 0``, all for ``None``."""
        if n is not None and n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        records = self.records()
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        return records if n is None else records[len(records) - n :]

    def __len__(self) -> int:
        return len(self.records())


# --------------------------------------------------------------- recorder


class RegistrySink:
    """Recorder hook: turns pipeline results into appended records.

    The pipelines (``run_matrix``, ``search_adversary``,
    ``optimal_offline``, the CLI entry points) accept one of these as
    ``recorder=`` and call the matching ``record_*`` method; everything
    is duck-typed, so this module never imports the simulation layers.
    """

    def __init__(
        self,
        registry: RunRegistry | str | Path,
        *,
        include_metrics: bool = True,
    ) -> None:
        self.registry = (
            registry
            if isinstance(registry, RunRegistry)
            else RunRegistry(registry)
        )
        self.include_metrics = include_metrics
        self.recorded = 0

    def _append(self, record: RunRecord) -> RunRecord:
        self.recorded += 1
        return self.registry.append(record)

    def _instance_fields(self, instance: Any) -> dict[str, Any]:
        return {
            "instance_name": instance.name or "",
            "instance_digest": instance_digest(instance),
            "horizon": instance.horizon,
            "num_jobs": len(instance.sequence),
            "num_colors": len(instance.sequence.colors),
        }

    def record_simulate(
        self,
        result: Any,
        *,
        engine: str | None = None,
        seed: int | None = None,
        kind: str = "simulate",
        monitors: Iterable[Any] = (),
        metrics_snapshot: Mapping[str, Any] | None = None,
        extra: Mapping[str, Any] | None = None,
    ) -> RunRecord:
        """Record one :class:`~repro.simulation.engine.RunResult`."""
        monitor_counts = {
            monitor.name: len(monitor.violations) for monitor in monitors
        }
        record = RunRecord(
            kind=kind,
            engine=engine,
            scheme=result.algorithm,
            seed=seed,
            num_resources=result.num_resources,
            speed=result.speed,
            record_mode=result.record,
            cost=cost_summary(result.cost),
            wall_seconds=result.wall_seconds,
            rounds_executed=result.rounds_executed,
            monitor_violations=sum(monitor_counts.values()),
            monitors=monitor_counts,
            metrics=(
                dict(metrics_snapshot)
                if metrics_snapshot is not None and self.include_metrics
                else None
            ),
            extra=dict(extra or {}),
            **self._instance_fields(result.instance),
        )
        return self._append(record)

    def record_search(
        self,
        result: Any,
        *,
        scheme: str,
        config: Any = None,
        extra: Mapping[str, Any] | None = None,
    ) -> RunRecord:
        """Record one adversary :class:`SearchResult`."""
        merged = {
            "best_ratio": result.best_ratio,
            "evaluations": result.evaluations,
            "score_cache_hits": result.score_cache_hits,
            "score_cache_misses": result.score_cache_misses,
            "shared_cache": result.shared_cache,
        }
        merged.update(extra or {})
        record = RunRecord(
            kind="search",
            scheme=scheme,
            seed=getattr(config, "seed", None),
            wall_seconds=result.wall_clock_seconds,
            extra=merged,
            **self._instance_fields(result.best_instance),
        )
        return self._append(record)

    def record_offline(
        self,
        result: Any,
        instance: Any,
        num_resources: int,
        *,
        wall_seconds: float = 0.0,
        extra: Mapping[str, Any] | None = None,
    ) -> RunRecord:
        """Record one exact-offline :class:`OptimalResult`."""
        merged = {
            "method": result.method,
            "nodes_expanded": result.nodes_expanded,
            "candidates_pruned": result.candidates_pruned,
        }
        if result.warm_start_cost is not None:
            merged["warm_start_cost"] = result.warm_start_cost
        merged.update(extra or {})
        record = RunRecord(
            kind="offline",
            scheme="OFF",
            num_resources=num_resources,
            cost=cost_summary(result.breakdown),
            wall_seconds=wall_seconds,
            extra=merged,
            **self._instance_fields(instance),
        )
        return self._append(record)

    def record_experiment(
        self,
        experiment_id: str,
        *,
        wall_seconds: float = 0.0,
        quick: bool = False,
        extra: Mapping[str, Any] | None = None,
    ) -> RunRecord:
        """Record one experiment invocation (``repro run EXP-…``)."""
        merged = {"experiment_id": experiment_id, "quick": quick}
        merged.update(extra or {})
        record = RunRecord(
            kind="experiment",
            instance_name=experiment_id,
            wall_seconds=wall_seconds,
            extra=merged,
        )
        return self._append(record)

    def close(self) -> None:
        self.registry.close()


# ------------------------------------------------------------------ diff


@dataclass
class RunDiff:
    """Field-level differences between two records."""

    run_a: str
    run_b: str
    same_instance: bool
    changed: dict[str, tuple[Any, Any]]
    cost_delta: dict[str, int]

    @property
    def identical_outcome(self) -> bool:
        return not self.cost_delta and not self.changed


#: Fields that are expected to differ between any two runs and carry no
#: comparison signal.
_VOLATILE_RUN_FIELDS = frozenset(
    {"run_id", "created", "wall_seconds", "metrics"}
)

#: ``extra`` keys that name artifacts of the invocation (where a trace
#: landed) rather than its outcome — ignored by :func:`diff_runs` so two
#: re-runs of one seeded configuration diff as identical.
_VOLATILE_EXTRA_KEYS = frozenset({"trace_path"})


def diff_runs(a: RunRecord, b: RunRecord) -> RunDiff:
    """Structured diff of two run records.

    Volatile fields (ids, timestamps, wall clock, metrics snapshots,
    artifact paths in ``extra``) are ignored; cost components are
    reported as numeric deltas (b - a), everything else as ``(a, b)``
    pairs.
    """
    changed: dict[str, tuple[Any, Any]] = {}
    for key in (
        "kind",
        "instance_name",
        "instance_digest",
        "horizon",
        "num_jobs",
        "num_colors",
        "engine",
        "scheme",
        "seed",
        "num_resources",
        "speed",
        "record_mode",
        "monitor_violations",
    ):
        va, vb = getattr(a, key), getattr(b, key)
        if va != vb:
            changed[key] = (va, vb)
    extra_a = {
        k: v for k, v in a.extra.items() if k not in _VOLATILE_EXTRA_KEYS
    }
    extra_b = {
        k: v for k, v in b.extra.items() if k not in _VOLATILE_EXTRA_KEYS
    }
    if extra_a != extra_b:
        changed["extra"] = (extra_a, extra_b)
    cost_delta = {
        key: b.cost.get(key, 0) - a.cost.get(key, 0)
        for key in sorted(set(a.cost) | set(b.cost))
        if b.cost.get(key, 0) != a.cost.get(key, 0)
    }
    return RunDiff(
        run_a=a.run_id,
        run_b=b.run_id,
        same_instance=bool(a.instance_digest)
        and a.instance_digest == b.instance_digest,
        changed=changed,
        cost_delta=cost_delta,
    )


def render_run_diff(diff: RunDiff) -> str:
    lines = [f"runs {diff.run_a} -> {diff.run_b}"]
    lines.append(
        "instance: "
        + ("identical (same digest)" if diff.same_instance else "DIFFERENT")
    )
    if diff.identical_outcome:
        lines.append("outcome: identical")
        return "\n".join(lines)
    if diff.cost_delta:
        lines.append("cost deltas (b - a):")
        pad = max(len(k) for k in diff.cost_delta)
        for key, delta in diff.cost_delta.items():
            lines.append(f"  {key.ljust(pad)}  {delta:+d}")
    if diff.changed:
        lines.append("changed fields:")
        pad = max(len(k) for k in diff.changed)
        for key, (va, vb) in sorted(diff.changed.items()):
            lines.append(f"  {key.ljust(pad)}  {va!r} -> {vb!r}")
    return "\n".join(lines)


def render_run_list(records: Iterable[RunRecord]) -> str:
    lines = [record.describe() for record in records]
    return "\n".join(lines) if lines else "(registry is empty)"


def render_run(record: RunRecord) -> str:
    """Full single-record view (``repro runs show``)."""
    payload = record.to_dict()
    metrics = payload.pop("metrics", None)
    lines = [json.dumps(payload, indent=2, sort_keys=True)]
    if metrics is not None:
        names = sorted(
            set(metrics.get("counters", {}))
            | set(metrics.get("gauges", {}))
            | set(metrics.get("histograms", {}))
        )
        lines.append(
            f"(metrics snapshot attached: {len(names)} instruments — "
            "export with `repro obs export`)"
        )
    return "\n".join(lines)
