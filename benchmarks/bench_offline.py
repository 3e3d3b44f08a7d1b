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

The branch-and-bound's node counts are history: that solver no longer
exists, so :data:`LEGACY_NODES` keeps them as a literal table and they
are never re-measured.  The smoke cells' exact costs and node counts
are pinned in ``tests/test_golden.py``; the solver's wall clock is the
performance ledger's ``offline-exact`` workload.
"""

from __future__ import annotations

import math

from repro.offline.optimal import optimal_offline, optimal_offline_exhaustive
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

#: Quick subset for the CI smoke.
SMOKE_SEEDS = (0, 1)
SMOKE_HORIZONS = (48, 64, 96)

MAX_STATES = 4_000_000

#: Nodes the retired branch-and-bound expanded per (seed, horizon) cell
#: of the full grid: the frozen budgets of the reach metric.
LEGACY_NODES = {
    (0, 48): 3611, (0, 64): 4970, (0, 96): 7441,
    (0, 128): 7356, (0, 160): 9811, (0, 192): 11743,
    (1, 48): 1423, (1, 64): 1708, (1, 96): 2607,
    (1, 128): 3684, (1, 160): 4870, (1, 192): 6623,
    (2, 48): 989, (2, 64): 1218, (2, 96): 2108,
    (2, 128): 2897, (2, 160): 3744, (2, 192): 4242,
    (3, 48): 959, (3, 64): 1266, (3, 96): 2035,
    (3, 128): 2677, (3, 160): 3289, (3, 192): 3988,
}


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
    """Solve every cell once; return one row per cell.

    Cells at or below :data:`CROSSCHECK_HORIZON` assert the cost against
    the exhaustive solver, so a bound-stack soundness bug fails the bench
    before any perf number is reported.
    """
    rows: list[dict] = []
    for seed in seeds:
        for horizon in horizons:
            instance = make_cell(seed, horizon)
            result = optimal_offline(instance, RESOURCES, max_states=max_states)
            row = {
                "seed": seed,
                "horizon": horizon,
                "cost": result.cost,
                "nodes": result.nodes_expanded,
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


def bench_offline_table():
    """Full grid, asserting the >=2x reach floor against the frozen budgets."""
    rows = measure_cells()
    reach = horizon_reach(rows, LEGACY_NODES)
    for base, cell in reach.items():
        # Within the node budget the legacy branch-and-bound spent at
        # each base horizon, the solver must reach horizons >= 2x longer
        # (geomean across seeds).
        assert cell["geomean_reach"] >= 2.0, (
            f"base {base}: reach geomean {cell['geomean_reach']} < 2.0"
        )
    node_ratios = [
        LEGACY_NODES[(row["seed"], row["horizon"])] / row["nodes"] for row in rows
    ]
    print(
        "\nhorizon reach geomeans: "
        + "  ".join(
            f"base {b}: {c['geomean_reach']}x" for b, c in reach.items()
        )
        + "\nequal-horizon node ratio geomean: "
        + f"{math.exp(sum(map(math.log, node_ratios)) / len(node_ratios)):.3f}x"
    )


def bench_offline_smoke():
    """CI-size subset: exactness plus the node win over the frozen budgets."""
    rows = measure_cells(SMOKE_SEEDS, SMOKE_HORIZONS)
    for row in rows:
        legacy = LEGACY_NODES[(row["seed"], row["horizon"])]
        assert row["nodes"] < legacy, (
            f"seed {row['seed']} horizon {row['horizon']}: expanded "
            f"{row['nodes']} >= frozen legacy {legacy}"
        )
    checked = [row for row in rows if row["exhaustive_checked"]]
    assert checked, "no cell was cross-checked against the exhaustive solver"
