"""EXP-S: simulator throughput scaling.

An engineering baseline rather than a paper claim: rounds-per-second of
the batched engine across a (resources, colors, horizon) grid, so
performance regressions in the hot loop show up in benchmark history.

Each grid cell is timed in both record modes — ``"full"`` (schedule +
trace, the verification path) and ``"costs"`` (the fast path sweeps and
searches use) — so the fast-path speedup is itself a tracked number.  A
second, sparse-friendly grid (many colors, large delay bounds, low load)
times the ``"costs"`` mode under both engine cores — ``dense`` (every
round simulated) and ``sparse`` (boundary calendar + inactive-stretch
fast-forward) — so the sparse-core speedup and the active-round fraction
are tracked too.  A third grid does the same head-to-head for the
*general* engine (per-job arrivals, ``engine="general-dense"`` vs
``"general-sparse"``), which gained the deadline calendar and
fixed-point fast-forward of the sparse core; its speedup geomean is the
tracked evidence that reduction pipelines run sparse end to end.  The
dense grid additionally runs a ``dense`` vs ``vectorized`` head-to-head
in costs mode (skipped when the ``repro[vec]`` numpy extra is missing);
the vectorized core's ≥10x speedup over the dense core on these cells is
a bench acceptance floor.  Cells
are independent and dispatch through an optional
:class:`~repro.runtime.parallel.ParallelRunner`; per-cell workload seeds
are derived with :func:`~repro.runtime.seeding.derive_seed` so the grid
is reproducible regardless of execution order.  The measured rows feed
``BENCH_engine.json`` (see ``benchmarks/bench_engine_scaling.py``).
"""

from __future__ import annotations

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.analysis.report import Series, Table, geometric_mean
from repro.experiments.base import ExperimentReport
from repro.runtime.parallel import ParallelRunner
from repro.runtime.seeding import derive_seed
from repro.simulation.engine import simulate
from repro.workloads.random_batched import random_rate_limited

DEFAULT_GRID: tuple[tuple[int, int, int], ...] = (
    (8, 4, 256),
    (16, 8, 256),
    (32, 16, 256),
    (16, 8, 1024),
    (16, 8, 4096),
)

#: Sparse-friendly cells: many colors with large delay bounds at low
#: load, so most rounds are boundary-free and most queues drain — the
#: regime the sparse engine core fast-forwards through.
SPARSE_GRID: tuple[tuple[int, int, int], ...] = ((64, 128, 4096),)

#: General-engine cells (per-job arrivals): low Poisson rate with large
#: delay bounds leaves long arrival-free stretches for the deadline
#: calendar + fixed-point fast-forward to skip; capacity covers the
#: color universe so queues actually drain between arrivals.
GENERAL_GRID: tuple[tuple[int, int, int], ...] = ((16, 16, 512), (16, 16, 4096))

DENSE_WORKLOAD = {"load": 0.6, "bound_choices": (2, 4, 8, 16)}
SPARSE_WORKLOAD = {"load": 0.2, "bound_choices": (64, 128, 256)}
#: ``load`` doubles as the per-round Poisson rate for general cells.
GENERAL_WORKLOAD = {"load": 0.02, "bound_choices": (64, 128, 256)}


def _scaling_cell(task: tuple) -> dict:
    """Time one (config, record mode, engine) cell; module-level so it pickles."""
    resources, colors, horizon, delta, seed, record, load, bounds, engine = task
    cell_seed = derive_seed(seed, resources, colors, horizon)
    if engine.startswith("general"):
        from repro.algorithms.greedy import GreedyPendingPolicy
        from repro.simulation.general import simulate_general
        from repro.workloads.random_batched import random_general

        instance = random_general(
            colors,
            delta,
            horizon,
            seed=cell_seed,
            rate=load,
            bound_choices=bounds,
        )
        result = simulate_general(
            instance,
            GreedyPendingPolicy(),
            resources,
            record=record,
            engine=engine.removeprefix("general-"),
        )
    else:
        instance = random_rate_limited(
            colors,
            delta,
            horizon,
            seed=cell_seed,
            load=load,
            bound_choices=bounds,
        )
        result = simulate(
            instance,
            DeltaLRUEDF(),
            resources,
            record=record,
            engine=engine,
        )
    elapsed = result.wall_seconds
    return {
        "resources": resources,
        "colors": colors,
        "horizon": horizon,
        "jobs": len(instance.sequence),
        "record": record,
        "engine": engine,
        "load": load,
        "seconds": elapsed,
        "rounds_per_second": result.rounds_per_second,
        "jobs_per_second": len(instance.sequence) / elapsed if elapsed > 0 else 0.0,
        "active_round_fraction": result.active_round_fraction,
        "total_cost": result.total_cost,
    }


def run(
    *,
    grid: tuple[tuple[int, int, int], ...] = DEFAULT_GRID,
    sparse_grid: tuple[tuple[int, int, int], ...] = SPARSE_GRID,
    general_grid: tuple[tuple[int, int, int], ...] = GENERAL_GRID,
    delta: int = 4,
    seed: int = 0,
    record_modes: tuple[str, ...] = ("full", "costs"),
    runner: ParallelRunner | None = None,
) -> ExperimentReport:
    report = ExperimentReport("EXP-S", "Simulator throughput scaling")
    tasks = [
        (
            resources,
            colors,
            horizon,
            delta,
            seed,
            record,
            DENSE_WORKLOAD["load"],
            DENSE_WORKLOAD["bound_choices"],
            "sparse",
        )
        for resources, colors, horizon in grid
        for record in record_modes
    ]
    # Dense cells compare the vectorized core against the dense core head
    # to head on the fast path; the ≥10x floor on this speedup is a bench
    # acceptance gate.  Skipped cleanly when the repro[vec] extra (numpy)
    # is unavailable.
    from repro.simulation.vectorized import numpy_available

    if numpy_available():
        tasks += [
            (
                resources,
                colors,
                horizon,
                delta,
                seed,
                "costs",
                DENSE_WORKLOAD["load"],
                DENSE_WORKLOAD["bound_choices"],
                engine,
            )
            for resources, colors, horizon in grid
            for engine in ("dense", "vectorized")
        ]
    # Sparse-friendly cells compare the two engine cores head to head on
    # the fast path the sweeps and searches actually use.
    tasks += [
        (
            resources,
            colors,
            horizon,
            delta,
            seed,
            "costs",
            SPARSE_WORKLOAD["load"],
            SPARSE_WORKLOAD["bound_choices"],
            engine,
        )
        for resources, colors, horizon in sparse_grid
        for engine in ("dense", "sparse")
    ]
    # Same head-to-head for the general (per-job arrival) engine, which
    # is what the reduction pipelines ultimately drive.
    tasks += [
        (
            resources,
            colors,
            horizon,
            delta,
            seed,
            "costs",
            GENERAL_WORKLOAD["load"],
            GENERAL_WORKLOAD["bound_choices"],
            engine,
        )
        for resources, colors, horizon in general_grid
        for engine in ("general-dense", "general-sparse")
    ]
    rows = (
        runner.map(_scaling_cell, tasks)
        if runner is not None
        else [_scaling_cell(task) for task in tasks]
    )
    report.rows.extend(rows)

    general_rows = [
        row for row in rows if row["engine"].startswith("general")
    ]
    batched_rows = [
        row for row in rows if not row["engine"].startswith("general")
    ]
    grid_rows = [
        row for row in batched_rows if row["load"] == DENSE_WORKLOAD["load"]
    ]
    sparse_rows = [
        row for row in batched_rows if row["load"] == SPARSE_WORKLOAD["load"]
    ]
    # The dense grid carries two row families: record-mode rows on the
    # default (sparse) core, and the dense-vs-vectorized head-to-head.
    record_mode_rows = [r for r in grid_rows if r["engine"] == "sparse"]
    engine_dim_rows = [r for r in grid_rows if r["engine"] != "sparse"]

    by_config: dict[tuple[int, int, int], dict[str, dict]] = {}
    for row in record_mode_rows:
        key = (row["resources"], row["colors"], row["horizon"])
        by_config.setdefault(key, {})[row["record"]] = row

    columns = ["resources", "colors", "horizon", "jobs"]
    for record in record_modes:
        columns += [f"{record} s", f"{record} rounds/s"]
    if {"full", "costs"} <= set(record_modes):
        columns.append("speedup")
    table = Table("ΔLRU-EDF engine throughput by record mode", tuple(columns))
    series = Series("Rounds per second by configuration", "config", "rounds/s")
    speedups = []
    for (resources, colors, horizon), cells in by_config.items():
        any_cell = next(iter(cells.values()))
        row_values = [resources, colors, horizon, any_cell["jobs"]]
        for record in record_modes:
            cell = cells[record]
            row_values += [
                round(cell["seconds"], 4),
                round(cell["rounds_per_second"]),
            ]
        if "full" in cells and "costs" in cells:
            full_s, costs_s = cells["full"]["seconds"], cells["costs"]["seconds"]
            speedup = full_s / costs_s if costs_s > 0 else 0.0
            speedups.append(speedup)
            row_values.append(round(speedup, 2))
        table.add_row(*row_values)
        label = f"n={resources},C={colors},H={horizon}"
        best = max(cell["rounds_per_second"] for cell in cells.values())
        series.add(label, best)
    report.tables.append(table)
    report.series.append(series)

    vec_by_config: dict[tuple[int, int, int], dict[str, dict]] = {}
    for row in engine_dim_rows:
        key = (row["resources"], row["colors"], row["horizon"])
        vec_by_config.setdefault(key, {})[row["engine"]] = row
    vectorized_speedups = []
    if vec_by_config:
        vec_table = Table(
            "Vectorized core vs dense core (costs mode, dense cells)",
            (
                "resources",
                "colors",
                "horizon",
                "dense s",
                "vectorized s",
                "speedup",
                "vec rounds/s",
            ),
        )
        for (resources, colors, horizon), cells in vec_by_config.items():
            dense_s = cells["dense"]["seconds"]
            vec_s = cells["vectorized"]["seconds"]
            speedup = dense_s / vec_s if vec_s > 0 else 0.0
            vectorized_speedups.append(speedup)
            vec_table.add_row(
                resources,
                colors,
                horizon,
                round(dense_s, 4),
                round(vec_s, 4),
                round(speedup, 2),
                round(cells["vectorized"]["rounds_per_second"]),
            )
        report.tables.append(vec_table)

    sparse_by_config: dict[tuple[int, int, int], dict[str, dict]] = {}
    for row in sparse_rows:
        key = (row["resources"], row["colors"], row["horizon"])
        sparse_by_config.setdefault(key, {})[row["engine"]] = row
    sparse_speedups = []
    if sparse_by_config:
        sparse_table = Table(
            "Sparse core vs dense core (costs mode, sparse-friendly cells)",
            (
                "resources",
                "colors",
                "horizon",
                "dense s",
                "sparse s",
                "speedup",
                "active fraction",
            ),
        )
        for (resources, colors, horizon), cells in sparse_by_config.items():
            dense_s = cells["dense"]["seconds"]
            sparse_s = cells["sparse"]["seconds"]
            speedup = dense_s / sparse_s if sparse_s > 0 else 0.0
            sparse_speedups.append(speedup)
            sparse_table.add_row(
                resources,
                colors,
                horizon,
                round(dense_s, 4),
                round(sparse_s, 4),
                round(speedup, 2),
                round(cells["sparse"]["active_round_fraction"], 3),
            )
        report.tables.append(sparse_table)

    general_by_config: dict[tuple[int, int, int], dict[str, dict]] = {}
    for row in general_rows:
        key = (row["resources"], row["colors"], row["horizon"])
        general_by_config.setdefault(key, {})[row["engine"]] = row
    general_speedups = []
    if general_by_config:
        general_table = Table(
            "General engine: sparse vs dense (costs mode, per-job arrivals)",
            (
                "resources",
                "colors",
                "horizon",
                "dense s",
                "sparse s",
                "speedup",
                "active fraction",
            ),
        )
        for (resources, colors, horizon), cells in general_by_config.items():
            dense_s = cells["general-dense"]["seconds"]
            sparse_s = cells["general-sparse"]["seconds"]
            speedup = dense_s / sparse_s if sparse_s > 0 else 0.0
            general_speedups.append(speedup)
            general_table.add_row(
                resources,
                colors,
                horizon,
                round(dense_s, 4),
                round(sparse_s, 4),
                round(speedup, 2),
                round(cells["general-sparse"]["active_round_fraction"], 3),
            )
        report.tables.append(general_table)

    report.summary = {
        "min_rounds_per_second": round(
            min(r["rounds_per_second"] for r in record_mode_rows)
        )
    }
    if vectorized_speedups:
        report.summary["vectorized_speedup_geomean"] = round(
            geometric_mean(vectorized_speedups), 3
        )
        report.summary["vectorized_min_speedup"] = round(
            min(vectorized_speedups), 3
        )
    if speedups:
        report.summary["fast_path_speedup_geomean"] = round(
            geometric_mean(speedups), 3
        )
    if sparse_speedups:
        report.summary["sparse_core_speedup_geomean"] = round(
            geometric_mean(sparse_speedups), 3
        )
        report.summary["min_active_round_fraction"] = round(
            min(r["active_round_fraction"] for r in sparse_rows), 3
        )
    if general_speedups:
        report.summary["general_sparse_speedup_geomean"] = round(
            geometric_mean(general_speedups), 3
        )
        report.summary["general_min_active_round_fraction"] = round(
            min(
                r["active_round_fraction"]
                for r in general_rows
                if r["engine"] == "general-sparse"
            ),
            3,
        )
    return report
