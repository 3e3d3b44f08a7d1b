"""Algorithm VarBatch (Section 5.1).

Reduces the main problem ``[Δ | 1 | D_ℓ | 1]`` (power-of-two bounds) to
``[Δ | 1 | D_ℓ/2 | D_ℓ/2]``: every job of delay bound ``p`` arriving in
``halfBlock(p, i)`` is delayed until the start of ``halfBlock(p, i+1)``
and must be executed within that half-block — i.e. it becomes a *batched*
job with delay bound ``p/2`` arriving at a multiple of ``p/2``.  Since

    (i+1) * p/2  >=  arrival        (the job only moves later), and
    (i+2) * p/2  <=  arrival + p    (the new deadline never exceeds the old),

any feasible execution of the transformed job is feasible for the
original one, so the transformed schedule *is* a schedule for the
original instance.  Colors with ``D_ℓ = 1`` are already batched (every
round is a multiple of 1) and pass through unchanged.

The batched instance is then handed to Algorithm Distribute, completing
the Theorem 3 stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.cost import CostBreakdown
from repro.core.instance import BatchMode, Instance, ProblemSpec, RequestSequence
from repro.core.job import Job
from repro.core.rounds import half_block_index, is_power_of_two
from repro.core.schedule import Schedule
from repro.reductions.distribute import DistributeResult, run_distribute
from repro.simulation.engine import ReconfigurationScheme


def varbatch_instance(instance: Instance) -> Instance:
    """Build the batched instance σ' by delaying jobs to half-blocks."""
    for color, bound in instance.spec.delay_bounds.items():
        if not is_power_of_two(bound):
            raise ValueError(
                f"VarBatch requires power-of-two delay bounds; color {color} "
                f"has bound {bound} (use repro.reductions.arbitrary for the "
                f"general case)"
            )
    new_bounds: dict[int, int] = {}
    for color, bound in instance.spec.delay_bounds.items():
        new_bounds[color] = bound // 2 if bound > 1 else 1
    new_jobs: list[Job] = []
    for job in instance.sequence:
        bound = job.delay_bound
        if bound == 1:
            new_jobs.append(job)
            continue
        i = half_block_index(bound, job.arrival)
        new_arrival = (i + 1) * (bound // 2)
        new_jobs.append(job.with_arrival(new_arrival, bound // 2))
    spec = ProblemSpec(
        new_bounds,
        instance.spec.cost,
        BatchMode.BATCHED,
        require_power_of_two=True,
    )
    max_shift = max(instance.spec.delay_bounds.values())
    sequence = RequestSequence(new_jobs, instance.horizon + max_shift)
    return Instance(spec, sequence, name=f"{instance.name or 'instance'}|varbatch")


@dataclass
class VarBatchResult:
    """Outer schedule for the original instance plus the inner stack.

    ``schedule`` is ``None`` for ``record="costs"`` runs (the sparse cost
    path carries no schedule; the breakdown is still exact).
    """

    instance: Instance
    batched_instance: Instance
    distribute: DistributeResult
    schedule: Schedule | None
    cost: CostBreakdown

    @property
    def total_cost(self) -> int:
        return self.cost.total

    @property
    def algorithm(self) -> str:
        return f"VarBatch[{self.distribute.algorithm}]"


def run_varbatch(
    instance: Instance,
    num_resources: int,
    *,
    scheme_factory: Callable[[], ReconfigurationScheme] | None = None,
    copies: int = 2,
    speed: int = 1,
    record: str = "full",
) -> VarBatchResult:
    """Run Algorithm VarBatch end to end on a general instance.

    The transformed jobs keep their identities, and every transformed
    execution window is contained in the original one, so the inner
    schedule is emitted unchanged as the schedule for the original
    instance; only the drop/cost accounting is recomputed against the
    original job set.

    ``record="costs"`` has no schedule to re-cost, but the half-block
    shift preserves both jid and color of every job, so the Distribute
    stage's streamed breakdown — computed against the batched job set —
    is already the breakdown against the original one.
    """
    batched = varbatch_instance(instance)
    distribute = run_distribute(
        batched,
        num_resources,
        scheme_factory=scheme_factory,
        copies=copies,
        speed=speed,
        record=record,
    )
    schedule = distribute.schedule
    if schedule is None:
        cost = distribute.cost
    else:
        cost = schedule.cost(instance.sequence.jobs, instance.cost_model)
    return VarBatchResult(instance, batched, distribute, schedule, cost)
