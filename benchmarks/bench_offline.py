"""Offline-optimum solver bench: horizon reach against frozen budgets.

The grid is the EXP-P mini-grid family — ``random_general(3, 2, horizon,
seed=seed, rate=0.4, bound_choices=(2, 4))`` solved with ``m=2``
resources — across seeds x horizons.  The headline metric is **horizon
reach**: for each seed and base horizon, the node budget is what the
retired iterative branch-and-bound spent at the base, and the reach is
the longest horizon in the ladder ``optimal_offline`` finishes *exactly*
within that budget.  The acceptance floor asserts the per-base geomean
of reach/base is >= 2x (the bound stack must double the solvable
horizon, not just shave nodes), with costs cross-checked against
``optimal_offline_exhaustive`` on every small cell.

The branch-and-bound's budgets are frozen: its ``method: "legacy"`` rows
in the committed ``benchmarks/reports/BENCH_offline.json`` (schema
:data:`repro.runtime.telemetry.OFFLINE_BENCH_SCHEMA`) are read back, never
re-measured.  ``bench_offline_table`` regenerates the file's solver rows
and carries the legacy rows over verbatim; the CI smoke re-measures a
quick subset and diffs it against that baseline via
``check_bench_regression.py --suite offline``.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

from repro.offline.optimal import optimal_offline, optimal_offline_exhaustive
from repro.runtime.telemetry import (
    OFFLINE_BENCH_SCHEMA,
    read_bench_json,
    write_bench_json,
)
from repro.workloads.random_batched import random_general

#: The EXP-P mini-grid cell family (colors, Δ, resources, rate, bounds).
COLORS = 3
DELTA = 2
RESOURCES = 2
RATE = 0.4
BOUND_CHOICES = (2, 4)

#: Full grid: the ladder the reach metric climbs, and the bases whose
#: frozen legacy node spend defines each budget.
SEEDS = (0, 1, 2, 3)
HORIZONS = (48, 64, 96, 128, 160, 192)
BASES = (48, 64, 96)

#: Horizons small enough for the exhaustive cross-check to be cheap.
CROSSCHECK_HORIZON = 64

#: Quick subset for the CI smoke / regression guard.
SMOKE_SEEDS = (0, 1)
SMOKE_HORIZONS = (48, 64, 96)

MAX_STATES = 4_000_000

#: The committed report holding the frozen legacy rows.
BASELINE = Path(__file__).parent / "reports" / "BENCH_offline.json"


def make_cell(seed: int, horizon: int):
    """One EXP-P mini-grid instance."""
    return random_general(
        COLORS,
        DELTA,
        horizon,
        seed=seed,
        rate=RATE,
        bound_choices=BOUND_CHOICES,
    )


def legacy_rows(path=BASELINE) -> list[dict]:
    """The frozen ``method: "legacy"`` rows of a committed report."""
    rows = [
        row
        for row in read_bench_json(path)["rows"]
        if row.get("method") == "legacy"
    ]
    assert rows, f"{path} holds no frozen legacy rows"
    return rows


def legacy_budgets(rows: list[dict]) -> dict[tuple[int, int], int]:
    """Legacy nodes expanded per (seed, horizon) cell."""
    return {(row["seed"], row["horizon"]): row["nodes"] for row in rows}


def measure_cells(
    seeds=SEEDS,
    horizons=HORIZONS,
    *,
    max_states: int = MAX_STATES,
    crosscheck: bool = True,
) -> list[dict]:
    """Solve every cell once; return one row per cell.

    Cells at or below :data:`CROSSCHECK_HORIZON` assert the cost against
    the exhaustive solver, so a bound-stack soundness bug fails the bench
    before any perf number is reported.
    """
    rows: list[dict] = []
    for seed in seeds:
        for horizon in horizons:
            instance = make_cell(seed, horizon)
            started = time.perf_counter()
            result = optimal_offline(instance, RESOURCES, max_states=max_states)
            row = {
                "kind": "offline_cell",
                "seed": seed,
                "horizon": horizon,
                "method": result.method,
                "cost": result.cost,
                "nodes": result.nodes_expanded,
                "seconds": round(time.perf_counter() - started, 4),
                "exhaustive_checked": False,
            }
            if crosscheck and horizon <= CROSSCHECK_HORIZON:
                exact = optimal_offline_exhaustive(instance, RESOURCES)
                assert exact.cost == result.cost, (
                    f"seed {seed} horizon {horizon}: exhaustive disagrees"
                )
                row["exhaustive_checked"] = True
            rows.append(row)
    return rows


def horizon_reach(
    rows: list[dict], budgets: dict[tuple[int, int], int], bases=BASES
) -> dict:
    """Per-base horizon-reach ratios and their geomeans.

    For each seed, the budget is the frozen legacy node count at the
    base horizon; the reach is the longest measured horizon whose node
    count stays within that budget (at least the base itself — every
    base cell is verified to fit its own budget).
    """
    nodes = {(row["seed"], row["horizon"]): row["nodes"] for row in rows}
    ladder = sorted({horizon for _, horizon in nodes})
    seeds = sorted({seed for seed, _ in nodes})
    summary: dict = {}
    for base in bases:
        ratios: dict[int, float] = {}
        for seed in seeds:
            budget = budgets[(seed, base)]
            assert nodes[(seed, base)] <= budget, (
                f"seed {seed}: the solver outspends legacy at its own base {base}"
            )
            reach = max(h for h in ladder if nodes[(seed, h)] <= budget)
            ratios[seed] = reach / base
        geomean = math.exp(
            sum(math.log(r) for r in ratios.values()) / len(ratios)
        )
        summary[base] = {
            "geomean_reach": round(geomean, 3),
            "ratios": {f"seed{s}": round(r, 3) for s, r in ratios.items()},
        }
    return summary


def bench_offline_table(report_dir):
    """Full grid -> BENCH_offline.json, asserting the >=2x reach floor."""
    path = report_dir / "BENCH_offline.json"
    legacy = legacy_rows(path)
    budgets = legacy_budgets(legacy)
    rows = measure_cells()
    reach = horizon_reach(rows, budgets)
    for base, cell in reach.items():
        # Within the node budget the legacy branch-and-bound spent at
        # each base horizon, the solver must reach horizons >= 2x longer
        # (geomean across seeds).
        assert cell["geomean_reach"] >= 2.0, (
            f"base {base}: reach geomean {cell['geomean_reach']} < 2.0"
        )
    node_ratios = [
        budgets[(row["seed"], row["horizon"])] / row["nodes"] for row in rows
    ]
    summary = {
        "horizon_reach": reach,
        "equal_horizon_node_ratio_geomean": round(
            math.exp(sum(map(math.log, node_ratios)) / len(node_ratios)), 3
        ),
        "grid": {
            "colors": COLORS,
            "resources": RESOURCES,
            "rate": RATE,
            "bound_choices": list(BOUND_CHOICES),
            "seeds": list(SEEDS),
            "horizons": list(HORIZONS),
            "bases": list(BASES),
            "max_states": MAX_STATES,
        },
    }
    # Each fresh row is followed by its cell's frozen legacy row, as read.
    legacy_by_cell = {(row["seed"], row["horizon"]): row for row in legacy}
    merged = []
    for row in rows:
        merged.append(row)
        merged.append(legacy_by_cell[(row["seed"], row["horizon"])])
    payload = write_bench_json(
        path, merged, summary=summary, schema=OFFLINE_BENCH_SCHEMA
    )
    assert payload["schema"] == OFFLINE_BENCH_SCHEMA
    print(
        "\nhorizon reach geomeans: "
        + "  ".join(
            f"base {b}: {c['geomean_reach']}x" for b, c in reach.items()
        )
    )


def bench_offline_smoke():
    """CI-size subset: exactness plus the node win, no baseline rewrite."""
    budgets = legacy_budgets(legacy_rows())
    rows = measure_cells(SMOKE_SEEDS, SMOKE_HORIZONS)
    for row in rows:
        legacy = budgets[(row["seed"], row["horizon"])]
        assert row["nodes"] < legacy, (
            f"seed {row['seed']} horizon {row['horizon']}: expanded "
            f"{row['nodes']} >= frozen legacy {legacy}"
        )
    checked = [row for row in rows if row["exhaustive_checked"]]
    assert checked, "no cell was cross-checked against the exhaustive solver"
