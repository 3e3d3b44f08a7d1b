"""Extension to arbitrary delay bounds (Section 5.3).

For a delay bound ``p`` with ``2^j <= p < 2^{j+1}``, a job arriving in
``halfBlock(2^{j-1}, i)`` is delayed until ``halfBlock(2^{j-1}, i+1)``
and restricted to execute there — i.e. it becomes a batched job with
power-of-two delay bound ``2^{j-2}`` (for ``j >= 2``; bounds 2 and 3 map
to unit-length blocks, and bound 1 passes through).  The containment

    new deadline = (i+2) * 2^{j-2}  <=  arrival + 2^{j-1}  <=  arrival + p

guarantees every transformed execution is feasible for the original job.
The batched instance then flows through Distribute as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.cost import CostBreakdown
from repro.core.instance import BatchMode, Instance, ProblemSpec, RequestSequence
from repro.core.job import Job
from repro.core.rounds import prev_power_of_two
from repro.core.schedule import Schedule
from repro.reductions.distribute import DistributeResult, run_distribute
from repro.simulation.engine import ReconfigurationScheme


def _transformed_bound(p: int) -> int:
    """The power-of-two batched bound the §5.3 transformation assigns."""
    if p <= 0:
        raise ValueError("delay bounds must be positive")
    if p == 1:
        return 1
    q = prev_power_of_two(p)  # q = 2^j
    # halfBlock(2^{j-1}, ·) has length 2^{j-2}; floor at 1 for tiny bounds.
    return max(q // 4, 1)


def generalize_bounds_instance(instance: Instance) -> Instance:
    """Build the batched power-of-two instance of the §5.3 reduction."""
    new_bounds = {
        color: _transformed_bound(bound)
        for color, bound in instance.spec.delay_bounds.items()
    }
    new_jobs: list[Job] = []
    for job in instance.sequence:
        block_len = new_bounds[job.color]
        if job.delay_bound == 1:
            new_jobs.append(job)
            continue
        i = job.arrival // block_len
        new_arrival = (i + 1) * block_len
        new_jobs.append(job.with_arrival(new_arrival, block_len))
    spec = ProblemSpec(
        new_bounds,
        instance.spec.cost,
        BatchMode.BATCHED,
        require_power_of_two=True,
    )
    max_shift = max(new_bounds.values()) * 2
    sequence = RequestSequence(new_jobs, instance.horizon + max_shift)
    return Instance(
        spec, sequence, name=f"{instance.name or 'instance'}|arbitrary-bounds"
    )


@dataclass
class ArbitraryBoundsResult:
    """Outer schedule for the arbitrary-bound instance plus inner stack.

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
        return f"ArbitraryBounds[{self.distribute.algorithm}]"


def run_arbitrary(
    instance: Instance,
    num_resources: int,
    *,
    scheme_factory: Callable[[], ReconfigurationScheme] | None = None,
    copies: int = 2,
    speed: int = 1,
    record: str = "full",
) -> ArbitraryBoundsResult:
    """Run the §5.3 reduction end to end on any general instance.

    ``record="costs"`` reuses the Distribute stage's streamed breakdown:
    the block shift preserves jid and color of every job, so the batched
    job multiset costs identically to the original one.
    """
    batched = generalize_bounds_instance(instance)
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
    return ArbitraryBoundsResult(instance, batched, distribute, schedule, cost)
