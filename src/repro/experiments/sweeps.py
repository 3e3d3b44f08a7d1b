"""Sweep utilities: run a matrix of (instance, scheme) cells.

The experiments share a pattern — run several algorithms over several
instances, collect a numpy cost matrix, summarize.  ``run_matrix`` does
it once, properly: one fresh scheme per cell (schemes are stateful), all
schedules verified, vectorized summaries.

Cells are independent, so the matrix dispatches through a
:class:`~repro.runtime.parallel.ParallelRunner` when one is supplied,
and ``record="costs"`` selects the engine fast path (no trace/schedule
objects) when only the cost matrices are needed — the common case for
large grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.instance import Instance
from repro.runtime.parallel import ParallelRunner
from repro.simulation.engine import ReconfigurationScheme, RunResult, simulate


@dataclass
class SweepResult:
    """Cost matrix (schemes x instances) plus the underlying runs."""

    scheme_names: tuple[str, ...]
    instance_names: tuple[str, ...]
    total_costs: np.ndarray  # shape (schemes, instances), int64
    reconfig_costs: np.ndarray
    drop_costs: np.ndarray
    runs: list[list[RunResult]]

    def best_scheme_per_instance(self) -> list[str]:
        """Name of the cheapest scheme for each instance column."""
        winners = np.argmin(self.total_costs, axis=0)
        return [self.scheme_names[int(w)] for w in winners]

    def mean_cost_per_scheme(self) -> dict[str, float]:
        means = self.total_costs.mean(axis=1)
        return {
            name: float(mean)
            for name, mean in zip(self.scheme_names, means)
        }

    def relative_to(self, baseline: str) -> np.ndarray:
        """Cost of every scheme divided by the baseline scheme's cost.

        Columns where the baseline is free are not clamped: a scheme
        that pays anything against a zero-cost baseline is infinitely
        worse (``inf``), and one that is also free ties at 1.0.
        Understating those ratios by flooring the denominator would hide
        exactly the blowups the adversarial experiments look for.
        """
        index = self.scheme_names.index(baseline)
        base = self.total_costs[index].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = self.total_costs / base
        zero_base = base == 0
        if np.any(zero_base):
            ratios[:, zero_base] = np.where(
                self.total_costs[:, zero_base] == 0, 1.0, np.inf
            )
        return ratios


def _run_cell(task: tuple) -> tuple[RunResult, dict | None]:
    """One (instance, scheme) cell; module-level so it pickles to workers.

    Returns ``(result, metrics_snapshot)``; the snapshot is ``None``
    unless the task asks for one (``publish=`` / live telemetry), and is
    a plain dict so it crosses the process boundary and folds into any
    parent registry via ``merge_snapshot``.
    """
    (
        instance,
        factory,
        num_resources,
        copies,
        speed,
        verify,
        record,
        engine,
        with_metrics,
    ) = task
    registry = None
    if with_metrics:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    result = simulate(
        instance,
        factory(),
        num_resources,
        copies=copies,
        speed=speed,
        record=record,
        engine=engine,
        registry=registry,
    )
    if verify:
        result.verify(strict=True)
    return result, registry.snapshot() if registry is not None else None


def run_matrix(
    instances: Sequence[Instance],
    scheme_factories: Sequence[Callable[[], ReconfigurationScheme]],
    num_resources: int,
    *,
    copies: int = 2,
    speed: int = 1,
    verify: bool = True,
    record: str = "full",
    engine: str | None = None,
    runner: ParallelRunner | None = None,
    recorder=None,
    publish: Callable[[dict], None] | None = None,
    series=None,
) -> SweepResult:
    """Simulate every scheme on every instance; return the matrices.

    ``record="costs"`` runs the engine fast path (implies ``verify=False``
    since no schedule exists to check).  ``engine`` selects the backend
    per :func:`repro.simulation.engine.simulate`.  Pass a ``runner`` to
    fan the cells out over worker processes; results are identical to a
    serial run — cells are pure and ordered.

    Observability hooks (both optional, both off by default):

    ``recorder``
        A :class:`~repro.obs.registry.RegistrySink`; every cell is
        appended to the persistent run registry as a ``kind="matrix"``
        :class:`~repro.obs.registry.RunRecord` after the grid completes.
    ``publish``
        A callable receiving one metrics-registry *snapshot dict* per
        cell (e.g. :meth:`repro.obs.service.OpsState.publish_snapshot`).
        Cells then carry a private
        :class:`~repro.obs.metrics.MetricsRegistry` whose snapshot flows
        back from the worker process and is published *as each chunk
        completes* — a live ``repro serve`` endpoint sees the matrix
        fill in while it runs.  Merging every worker snapshot into one
        registry reproduces exactly the single-process registry a serial
        run would have built (``merge_snapshot`` is associative).
    ``series``
        A :class:`~repro.obs.timeseries.SeriesRecorder`; cell metric
        snapshots are folded into its registry *in task order* and the
        recorder is sampled once per cell (clock = cell index), so the
        matrix leaves a per-cell metric history — identical for serial
        and parallel runners, because the fold runs over the ordered
        result list, not completion order.
    """
    if not instances or not scheme_factories:
        raise ValueError("need at least one instance and one scheme")
    names = [factory().name for factory in scheme_factories]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            "duplicate scheme names in the matrix: "
            + ", ".join(duplicates)
            + "; summaries key rows by name, so each factory must produce "
            "a uniquely named scheme"
        )
    if record == "costs":
        verify = False
    with_metrics = publish is not None or series is not None
    tasks = [
        (
            instance,
            factory,
            num_resources,
            copies,
            speed,
            verify,
            record,
            engine,
            with_metrics,
        )
        for factory in scheme_factories
        for instance in instances
    ]

    def _publish_outputs(outputs) -> None:
        for _result, snapshot in outputs:
            if snapshot is not None:
                publish(snapshot)

    on_progress = _publish_outputs if publish is not None else None
    if runner is not None:
        cells = runner.map(_run_cell, tasks, progress=on_progress)
    else:
        cells = []
        for task in tasks:
            output = _run_cell(task)
            if on_progress is not None:
                on_progress([output])
            cells.append(output)
    shape = (len(scheme_factories), len(instances))
    totals = np.zeros(shape, dtype=np.int64)
    reconfigs = np.zeros(shape, dtype=np.int64)
    drops = np.zeros(shape, dtype=np.int64)
    runs: list[list[RunResult]] = []
    for i in range(len(scheme_factories)):
        row = [cell for cell, _snapshot in cells[i * len(instances) : (i + 1) * len(instances)]]
        for j, result in enumerate(row):
            totals[i, j] = result.total_cost
            reconfigs[i, j] = result.cost.reconfig_cost
            drops[i, j] = result.cost.drop_cost
        runs.append(row)
    if recorder is not None:
        for result, snapshot in cells:
            recorder.record_simulate(
                result,
                engine=engine,
                kind="matrix",
                metrics_snapshot=snapshot,
            )
    if series is not None:
        for index, (_result, snapshot) in enumerate(cells):
            if snapshot is not None:
                series.registry.merge_snapshot(snapshot)
            series.sample(index)
    return SweepResult(
        scheme_names=tuple(names),
        instance_names=tuple(
            instance.name or f"instance-{j}" for j, instance in enumerate(instances)
        ),
        total_costs=totals,
        reconfig_costs=reconfigs,
        drop_costs=drops,
        runs=runs,
    )
