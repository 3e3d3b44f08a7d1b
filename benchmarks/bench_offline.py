"""Offline-optimum solver bench: the ISSUE-7 horizon-reach acceptance.

The grid is the EXP-P mini-grid family — ``random_general(3, 2, horizon,
seed=seed, rate=0.4, bound_choices=(2, 4))`` solved with ``m=2``
resources — measured for both the RDS solver and the legacy iterative
branch-and-bound across seeds x horizons.  The headline metric is
**horizon reach**: for each seed and base horizon, the node budget is
what the legacy solver spends at the base, and the reach is the longest
horizon in the ladder the RDS solver finishes *exactly* within that
budget.  The acceptance floor asserts the per-base geomean of
reach/base is >= 2x (the bound stack must double the solvable horizon,
not just shave nodes), with costs cross-checked against
``optimal_offline_exhaustive`` on every small cell.

``bench_offline_table`` regenerates the committed
``benchmarks/reports/BENCH_offline.json`` (schema
:data:`repro.runtime.telemetry.OFFLINE_BENCH_SCHEMA`); the CI smoke
re-measures a quick subset and diffs it against that baseline via
``check_bench_regression.py --suite offline``.
"""

from __future__ import annotations

import math
import time

from repro.offline.optimal import optimal_offline, optimal_offline_exhaustive
from repro.runtime.telemetry import OFFLINE_BENCH_SCHEMA, write_bench_json
from repro.workloads.random_batched import random_general

#: The EXP-P mini-grid cell family (colors, Δ, resources, rate, bounds).
COLORS = 3
DELTA = 2
RESOURCES = 2
RATE = 0.4
BOUND_CHOICES = (2, 4)

#: Full grid: the ladder the reach metric climbs, and the bases whose
#: legacy node spend defines each budget.
SEEDS = (0, 1, 2, 3)
HORIZONS = (48, 64, 96, 128, 160, 192)
BASES = (48, 64, 96)

#: Horizons small enough for the exhaustive cross-check to be cheap.
CROSSCHECK_HORIZON = 64

#: Quick subset for the CI smoke / regression guard.
SMOKE_SEEDS = (0, 1)
SMOKE_HORIZONS = (48, 64, 96)

MAX_STATES = 4_000_000


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


def measure_cells(
    seeds=SEEDS,
    horizons=HORIZONS,
    *,
    max_states: int = MAX_STATES,
    crosscheck: bool = True,
) -> list[dict]:
    """Solve every cell with both solvers; return one row per (cell, method).

    Every cell asserts rds cost == legacy cost; cells at or below
    :data:`CROSSCHECK_HORIZON` additionally assert against the
    exhaustive solver, so a bound-stack soundness bug fails the bench
    before any perf number is reported.
    """
    rows: list[dict] = []
    for seed in seeds:
        for horizon in horizons:
            instance = make_cell(seed, horizon)
            per_method: dict[str, dict] = {}
            for method in ("rds", "legacy"):
                started = time.perf_counter()
                result = optimal_offline(
                    instance, RESOURCES, method=method, max_states=max_states
                )
                per_method[method] = {
                    "kind": "offline_cell",
                    "seed": seed,
                    "horizon": horizon,
                    "method": method,
                    "cost": result.cost,
                    "nodes": result.nodes_expanded,
                    "seconds": round(time.perf_counter() - started, 4),
                }
            assert per_method["rds"]["cost"] == per_method["legacy"]["cost"], (
                f"seed {seed} horizon {horizon}: rds/legacy cost mismatch"
            )
            checked = False
            if crosscheck and horizon <= CROSSCHECK_HORIZON:
                exact = optimal_offline_exhaustive(instance, RESOURCES)
                assert exact.cost == per_method["rds"]["cost"], (
                    f"seed {seed} horizon {horizon}: exhaustive disagrees"
                )
                checked = True
            for row in per_method.values():
                row["exhaustive_checked"] = checked
                rows.append(row)
    return rows


def horizon_reach(rows: list[dict], bases=BASES) -> dict:
    """Per-base horizon-reach ratios and their geomeans.

    For each seed, the budget is the legacy solver's node count at the
    base horizon; the reach is the longest measured horizon whose RDS
    node count stays within that budget (at least the base itself —
    every base cell is verified to fit its own budget).
    """
    nodes: dict[tuple[str, int, int], int] = {}
    horizons: set[int] = set()
    seeds: set[int] = set()
    for row in rows:
        nodes[(row["method"], row["seed"], row["horizon"])] = row["nodes"]
        horizons.add(row["horizon"])
        seeds.add(row["seed"])
    ladder = sorted(horizons)
    summary: dict = {}
    for base in bases:
        ratios: dict[int, float] = {}
        for seed in sorted(seeds):
            budget = nodes[("legacy", seed, base)]
            assert nodes[("rds", seed, base)] <= budget, (
                f"seed {seed}: rds outspends legacy at its own base {base}"
            )
            reach = max(
                h for h in ladder if nodes[("rds", seed, h)] <= budget
            )
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
    rows = measure_cells()
    reach = horizon_reach(rows)
    for base, cell in reach.items():
        # The ISSUE-7 acceptance floor: within the node budget the legacy
        # branch-and-bound spends at each base horizon, the RDS solver
        # must reach horizons >= 2x longer (geomean across seeds).
        assert cell["geomean_reach"] >= 2.0, (
            f"base {base}: reach geomean {cell['geomean_reach']} < 2.0"
        )
    node_ratios = []
    for seed in SEEDS:
        for horizon in HORIZONS:
            cell = {
                row["method"]: row["nodes"]
                for row in rows
                if row["seed"] == seed and row["horizon"] == horizon
            }
            node_ratios.append(cell["legacy"] / cell["rds"])
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
    path = report_dir / "BENCH_offline.json"
    payload = write_bench_json(
        path, rows, summary=summary, schema=OFFLINE_BENCH_SCHEMA
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
    rows = measure_cells(SMOKE_SEEDS, SMOKE_HORIZONS)
    by_cell: dict[tuple[int, int], dict[str, int]] = {}
    for row in rows:
        by_cell.setdefault((row["seed"], row["horizon"]), {})[
            row["method"]
        ] = row["nodes"]
    for (seed, horizon), cell in by_cell.items():
        assert cell["rds"] < cell["legacy"], (
            f"seed {seed} horizon {horizon}: rds expanded {cell['rds']} "
            f">= legacy {cell['legacy']}"
        )
    checked = [row for row in rows if row["exhaustive_checked"]]
    assert checked, "no cell was cross-checked against the exhaustive solver"
