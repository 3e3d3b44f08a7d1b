"""Performance telemetry: machine-readable benchmark records.

The EXP-S throughput experiment previously printed a table and forgot
the numbers; this module gives the perf trajectory a durable home.
:func:`write_bench_json` renders engine-scaling rows (wall-clock,
rounds/sec, record mode, engine core, active-round fraction) plus enough
machine context to interpret them into ``BENCH_engine.json``, which
benchmark runs commit so regressions are visible across PRs.
:func:`throughput_regressions` diffs a fresh run against that committed
baseline — the CI regression guard is built on it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

#: Schema tag so future emitters can evolve the layout detectably.
#: v2 added the engine-core dimension ("engine", "active_round_fraction"
#: on throughput rows) plus offline-search and adversary-cache rows.
#: v3 adds the optional top-level "metrics" block (a
#: :meth:`repro.obs.metrics.MetricsRegistry.snapshot` payload) and typed
#: diff entries from :func:`throughput_regressions` — each entry carries
#: a "kind" ("regression" or "missing_baseline") instead of silently
#: skipping baseline rows without a throughput figure.
BENCH_SCHEMA = "repro-bench-engine/v3"

#: Schema of ``BENCH_offline.json`` — offline-optimum solver cells
#: (seed x horizon x method -> nodes expanded, wall clock, cost) plus a
#: horizon-reach summary.  Separate from :data:`BENCH_SCHEMA` because
#: the rows carry solver identities, not engine throughput.
OFFLINE_BENCH_SCHEMA = "repro-bench-offline/v1"

#: Fields identifying one throughput measurement across runs.
THROUGHPUT_KEY = ("resources", "colors", "horizon", "record", "engine")

#: Fields identifying one offline-solver measurement across runs.
OFFLINE_KEY = ("seed", "horizon", "method")


def machine_context() -> dict[str, Any]:
    """Host facts needed to compare benchmark numbers across runs."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def bench_payload(
    rows: Sequence[Mapping[str, Any]],
    *,
    summary: Mapping[str, Any] | None = None,
    context: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    schema: str = BENCH_SCHEMA,
) -> dict[str, Any]:
    """Assemble the BENCH json document from benchmark rows.

    ``metrics`` (schema v3) is an optional
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot` payload recorded
    alongside the rows — counters/histograms from the instrumented run
    that produced them.  ``schema`` selects the document family
    (:data:`BENCH_SCHEMA` for engine throughput,
    :data:`OFFLINE_BENCH_SCHEMA` for offline-solver cells).
    """
    payload = {
        "schema": schema,
        "machine": dict(context) if context is not None else machine_context(),
        "summary": dict(summary or {}),
        "rows": [dict(row) for row in rows],
    }
    if metrics is not None:
        payload["metrics"] = dict(metrics)
    return payload


def write_bench_json(
    path: str | Path,
    rows: Sequence[Mapping[str, Any]],
    *,
    summary: Mapping[str, Any] | None = None,
    context: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    schema: str = BENCH_SCHEMA,
) -> dict[str, Any]:
    """Write the benchmark document to ``path`` and return it."""
    payload = bench_payload(
        rows, summary=summary, context=context, metrics=metrics, schema=schema
    )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def read_bench_json(path: str | Path) -> dict[str, Any]:
    """Load a previously written benchmark document."""
    return json.loads(Path(path).read_text())


def _throughput_index(
    rows: Sequence[Mapping[str, Any]],
    *,
    require_rps: bool = True,
    source: str = "rows",
) -> dict[tuple, Mapping[str, Any]]:
    """Index throughput rows by identity key.

    With ``require_rps`` (the default) only rows carrying a measured
    ``rounds_per_second`` qualify.  Baselines are indexed with
    ``require_rps=False`` so that throughput-shaped rows (all
    :data:`THROUGHPUT_KEY` fields present) missing the measurement are
    still matchable — and reportable as ``missing_baseline`` — instead
    of silently invisible.

    Two rows with the same identity key raise :class:`ValueError` rather
    than last-write-wins: a baseline file with duplicate cells (e.g. a
    bad merge of two regenerations) would otherwise silently guard
    against whichever copy happened to come last.
    """
    indexed: dict[tuple, Mapping[str, Any]] = {}
    for row in rows:
        if "rounds_per_second" not in row and (
            require_rps or not all(field in row for field in THROUGHPUT_KEY)
        ):
            continue
        key = tuple(row.get(field) for field in THROUGHPUT_KEY)
        if key in indexed:
            raise ValueError(
                f"duplicate throughput cell in {source}: "
                f"{dict(zip(THROUGHPUT_KEY, key))}"
            )
        indexed[key] = row
    return indexed


def throughput_regressions(
    baseline_rows: Sequence[Mapping[str, Any]],
    fresh_rows: Sequence[Mapping[str, Any]],
    *,
    tolerance: float = 0.30,
) -> list[dict[str, Any]]:
    """Rows whose fresh rounds/sec dropped more than ``tolerance``.

    Rows are matched by :data:`THROUGHPUT_KEY`; baseline cells with no
    fresh counterpart are ignored (grids may shrink between runs).  Each
    returned record carries ``kind="regression"``, the matching key,
    both throughputs, and the fresh/baseline ratio, so callers can
    render an actionable failure.

    A fresh cell with no usable baseline measurement — either the
    matching baseline row lacks ``rounds_per_second`` (a truncated or
    hand-edited baseline) or no baseline row exists at all (a grid that
    just grew) — produces a ``kind="missing_baseline"`` entry instead of
    being silently skipped: a corrupt baseline must not read as "no
    regressions", and new cells should visibly enter the baseline via a
    regeneration rather than float unguarded.  One entry is emitted per
    unmatched fresh cell — when a whole dimension grows (e.g. a new
    engine backend joins the grid), every new cell is listed, not just
    the first one encountered.

    Duplicate identity keys on either side raise :class:`ValueError`
    (see :func:`_throughput_index`).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must lie in [0, 1)")
    baseline_index = _throughput_index(
        baseline_rows, require_rps=False, source="baseline rows"
    )
    regressions: list[dict[str, Any]] = []
    for key, fresh in _throughput_index(
        fresh_rows, source="fresh rows"
    ).items():
        baseline = baseline_index.get(key)
        fresh_rps = float(fresh["rounds_per_second"])
        if baseline is None or "rounds_per_second" not in baseline:
            regressions.append(
                {
                    "kind": "missing_baseline",
                    "key": dict(zip(THROUGHPUT_KEY, key)),
                    "fresh_rounds_per_second": fresh_rps,
                }
            )
            continue
        base_rps = float(baseline["rounds_per_second"])
        if base_rps <= 0:
            continue
        ratio = fresh_rps / base_rps
        if ratio < 1.0 - tolerance:
            regressions.append(
                {
                    "kind": "regression",
                    "key": dict(zip(THROUGHPUT_KEY, key)),
                    "baseline_rounds_per_second": base_rps,
                    "fresh_rounds_per_second": fresh_rps,
                    "ratio": ratio,
                }
            )
    return regressions


def offline_regressions(
    baseline_rows: Sequence[Mapping[str, Any]],
    fresh_rows: Sequence[Mapping[str, Any]],
    *,
    tolerance: float = 0.30,
) -> list[dict[str, Any]]:
    """Offline-solver cells whose nodes or wall clock grew past tolerance.

    Rows are matched by :data:`OFFLINE_KEY`.  Two metrics are guarded per
    matched cell, each failing when the fresh value exceeds the baseline
    by more than ``tolerance``: ``nodes`` (deterministic — any growth is
    an algorithmic change, so this rarely fires spuriously) and
    ``seconds`` (wall clock; machine-sensitive, hence the wide default
    tolerance and the machine context printed by the CI guard).  Fresh
    cells without a baseline counterpart are reported as
    ``missing_baseline`` so grid growth enters the baseline visibly;
    baseline cells the fresh run skipped are ignored (smoke runs measure
    a subset).  A fresh/baseline cost mismatch on a matched cell is
    reported as ``kind="cost_mismatch"`` — the solver is exact, so that
    is a correctness bug, not a perf regression.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must lie in [0, 1)")
    indexed: dict[tuple, Mapping[str, Any]] = {}
    for row in baseline_rows:
        if not all(field in row for field in OFFLINE_KEY):
            continue
        key = tuple(row[field] for field in OFFLINE_KEY)
        if key in indexed:
            raise ValueError(
                f"duplicate offline cell in baseline: "
                f"{dict(zip(OFFLINE_KEY, key))}"
            )
        indexed[key] = row
    regressions: list[dict[str, Any]] = []
    seen: set[tuple] = set()
    for fresh in fresh_rows:
        if not all(field in fresh for field in OFFLINE_KEY):
            continue
        key = tuple(fresh[field] for field in OFFLINE_KEY)
        if key in seen:
            raise ValueError(
                f"duplicate offline cell in fresh rows: "
                f"{dict(zip(OFFLINE_KEY, key))}"
            )
        seen.add(key)
        baseline = indexed.get(key)
        if baseline is None:
            regressions.append(
                {
                    "kind": "missing_baseline",
                    "key": dict(zip(OFFLINE_KEY, key)),
                    "fresh_nodes": fresh.get("nodes"),
                }
            )
            continue
        if "cost" in baseline and "cost" in fresh and baseline["cost"] != fresh["cost"]:
            regressions.append(
                {
                    "kind": "cost_mismatch",
                    "key": dict(zip(OFFLINE_KEY, key)),
                    "baseline_cost": baseline["cost"],
                    "fresh_cost": fresh["cost"],
                }
            )
            continue
        for metric in ("nodes", "seconds"):
            base_value = float(baseline.get(metric, 0) or 0)
            fresh_value = float(fresh.get(metric, 0) or 0)
            if base_value <= 0:
                continue
            ratio = fresh_value / base_value
            if ratio > 1.0 + tolerance:
                regressions.append(
                    {
                        "kind": "regression",
                        "key": dict(zip(OFFLINE_KEY, key)),
                        "metric": metric,
                        "baseline": base_value,
                        "fresh": fresh_value,
                        "ratio": ratio,
                    }
                )
    return regressions
