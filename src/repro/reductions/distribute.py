"""Algorithm Distribute (Section 4.1).

Reduces ``[Δ | 1 | D_ℓ | D_ℓ]`` (batched, arbitrarily large batches) to
rate-limited ``[Δ | 1 | D_ℓ | D_ℓ]``:

1. Within each request, rank the color-ℓ jobs (we use jid order, which is
   deterministic) and recolor job ``x`` to the *subcolor* ``(ℓ, j)`` with
   ``j = floor(rank(x) / D_ℓ)``.  Each subcolor then receives at most
   ``D_ℓ`` jobs per batch — rate-limited by construction.
2. Run an inner algorithm (ΔLRU-EDF by default) on the transformed
   instance.
3. Map the inner schedule back: configuring subcolor ``(ℓ, j)``
   configures ℓ; executing a subcolor job executes the original job
   (jobs keep their identity — only the color field changes).

The mapping drops reconfigurations that would recolor a resource to the
color it already holds (two subcolors of the same ℓ swapping in one
slot), which is why Lemma 4.2's inequality — outer cost ≤ inner cost —
can be strict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.core.cost import CostBreakdown
from repro.core.instance import BatchMode, Instance, ProblemSpec, RequestSequence
from repro.core.job import BLACK, Job
from repro.core.schedule import Execution, Reconfiguration, Schedule
from repro.simulation.engine import ReconfigurationScheme, RunResult, simulate


@dataclass(frozen=True)
class SubcolorMap:
    """Bidirectional mapping between original colors and subcolors."""

    to_subcolor: dict[tuple[int, int], int]
    to_original: dict[int, int]

    def original(self, subcolor: int) -> int:
        return self.to_original[subcolor]


def distribute_instance(instance: Instance) -> tuple[Instance, SubcolorMap]:
    """Build the rate-limited instance I' and the subcolor mapping."""
    if instance.spec.batch_mode is BatchMode.GENERAL:
        raise ValueError(
            "Distribute requires a batched instance; apply VarBatch first"
        )
    to_subcolor: dict[tuple[int, int], int] = {}
    to_original: dict[int, int] = {}
    new_bounds: dict[int, int] = {}

    def subcolor_id(color: int, j: int) -> int:
        key = (color, j)
        if key not in to_subcolor:
            new_id = len(to_subcolor)
            to_subcolor[key] = new_id
            to_original[new_id] = color
            new_bounds[new_id] = instance.spec.delay_bound(color)
        return to_subcolor[key]

    new_jobs: list[Job] = []
    for round_index in instance.sequence.arrival_rounds():
        per_color: dict[int, list[Job]] = {}
        for job in instance.sequence.arrivals(round_index):
            per_color.setdefault(job.color, []).append(job)
        for color, batch in per_color.items():
            bound = instance.spec.delay_bound(color)
            for rank, job in enumerate(sorted(batch, key=lambda j: j.jid)):
                new_jobs.append(job.with_color(subcolor_id(color, rank // bound)))

    # Ensure every original color is represented even if it has no jobs,
    # so the inner spec covers the same color universe.
    for color in instance.spec.colors:
        subcolor_id(color, 0)

    spec = ProblemSpec(
        new_bounds,
        instance.spec.cost,
        BatchMode.RATE_LIMITED,
        instance.spec.require_power_of_two,
    )
    inner = Instance(
        spec,
        RequestSequence(new_jobs, instance.horizon),
        name=f"{instance.name or 'instance'}|distributed",
    )
    return inner, SubcolorMap(to_subcolor, to_original)


@dataclass
class DistributeResult:
    """Inner run plus the mapped-back outer schedule and cost.

    ``schedule`` is ``None`` for ``record="costs"`` runs, which stream the
    outer cost directly off the inner engine instead of materializing and
    mapping back a schedule.
    """

    instance: Instance
    inner: RunResult
    mapping: SubcolorMap
    schedule: Schedule | None
    cost: CostBreakdown

    @property
    def total_cost(self) -> int:
        return self.cost.total

    @property
    def algorithm(self) -> str:
        return f"Distribute[{self.inner.algorithm}]"


def map_back_schedule(
    instance: Instance,
    inner_schedule: Schedule,
    mapping: SubcolorMap,
) -> Schedule:
    """Project an inner (subcolored) schedule onto the original colors.

    Same-color reconfigurations created by subcolor swaps within one slot
    are elided, so the outer reconfiguration cost is at most the inner
    one (Lemma 4.2).
    """
    outer = Schedule(
        inner_schedule.num_resources, speed=inner_schedule.speed
    )
    current: dict[int, int] = {}
    for event in inner_schedule.reconfigurations:
        color = mapping.original(event.new_color)
        if current.get(event.resource, BLACK) == color:
            continue
        current[event.resource] = color
        outer.add_reconfiguration(
            Reconfiguration(event.round_index, event.mini_round, event.resource, color)
        )
    for event in inner_schedule.executions:
        outer.add_execution(
            Execution(
                event.round_index,
                event.mini_round,
                event.resource,
                event.jid,
                mapping.original(event.color),
            )
        )
    return outer


class OuterCostMapper:
    """Streams the mapped-back outer cost without building a schedule.

    ``record="costs"`` runs have no inner :class:`Schedule` to hand to
    :func:`map_back_schedule`, so the outer cost is reconstructed from two
    exact identities instead:

    * **Reconfigurations** — the engine fires this mapper (via its
      ``reconfig_observer`` hook) once per cache insert that physically
      reconfigured resources, in event order.  Replaying
      :func:`map_back_schedule`'s per-resource same-color elision against
      that stream yields the outer reconfiguration multiset exactly.
    * **Drops** — jobs keep their identity through recoloring and are
      executed at most once, so per original color
      ``drops = #jobs − #mapped executions``; the inner breakdown's
      ``executions_by_color`` supplies the executions.
    """

    def __init__(self, mapping: SubcolorMap) -> None:
        self._mapping = mapping
        self._current: dict[int, int] = {}
        self._reconfigs: Counter = Counter()

    def __call__(self, subcolor: int, resources: list[int]) -> None:
        color = self._mapping.original(subcolor)
        current = self._current
        for resource in resources:
            if current.get(resource, BLACK) == color:
                continue
            current[resource] = color
            self._reconfigs[color] += 1

    def finish(self, instance: Instance, inner_cost: CostBreakdown) -> CostBreakdown:
        """Assemble the outer breakdown for ``instance``'s original jobs."""
        cost = CostBreakdown(instance.cost_model)
        for color, count in sorted(self._reconfigs.items()):
            cost.record_reconfig(color, count)
        executed: Counter = Counter()
        for subcolor, count in inner_cost.executions_by_color.items():
            executed[self._mapping.original(subcolor)] += count
        for color, count in sorted(executed.items()):
            if count:
                cost.record_execution(color, count)
        job_counts = Counter(job.color for job in instance.sequence.jobs)
        for color, total in sorted(job_counts.items()):
            dropped = total - executed.get(color, 0)
            if dropped:
                cost.record_drop(color, dropped)
        return cost


def run_distribute(
    instance: Instance,
    num_resources: int,
    *,
    scheme_factory: Callable[[], ReconfigurationScheme] | None = None,
    copies: int = 2,
    speed: int = 1,
    record: str = "full",
    engine: str | None = None,
) -> DistributeResult:
    """Run Algorithm Distribute end to end on a batched instance.

    ``record="costs"`` skips schedule/trace materialization end to end:
    the inner engine runs on its fast (and, in sparse mode, round-
    skipping) path and the outer cost streams through
    :class:`OuterCostMapper`; the resulting breakdown is identical to the
    ``record="full"`` one.  ``engine`` selects the inner backend by name
    (see :func:`~repro.simulation.engine.simulate`); the vectorized
    backend streams reconfigurations through the observer in event
    order, so outer costs stay identical there too.
    """
    from repro.algorithms.dlru_edf import DeltaLRUEDF

    inner_instance, mapping = distribute_instance(instance)
    scheme = scheme_factory() if scheme_factory is not None else DeltaLRUEDF()
    if record == "costs":
        mapper = OuterCostMapper(mapping)
        inner = simulate(
            inner_instance,
            scheme,
            num_resources,
            copies=copies,
            speed=speed,
            record="costs",
            engine=engine,
            reconfig_observer=mapper,
        )
        cost = mapper.finish(instance, inner.cost)
        return DistributeResult(instance, inner, mapping, None, cost)
    inner = simulate(
        inner_instance,
        scheme,
        num_resources,
        copies=copies,
        speed=speed,
        record=record,
        engine=engine,
    )
    outer_schedule = map_back_schedule(instance, inner.schedule, mapping)
    cost = outer_schedule.cost(instance.sequence.jobs, instance.cost_model)
    return DistributeResult(instance, inner, mapping, outer_schedule, cost)
