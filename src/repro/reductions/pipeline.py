"""The composed online algorithm for the main problem (Theorem 3).

``run_pipeline`` is the single entry point a downstream user needs: give
it any ``[Δ | 1 | D_ℓ | 1]`` instance and a resource count and it runs
the full stack —

* power-of-two bounds: VarBatch (half-block batching) → Distribute
  (subcolor rate limiting) → ΔLRU-EDF;
* arbitrary bounds: the §5.3 batching → Distribute → ΔLRU-EDF —

returning a feasible schedule for the *original* instance plus the cost
breakdown and the intermediate artifacts for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.cost import CostBreakdown
from repro.core.instance import BatchMode, Instance
from repro.core.rounds import is_power_of_two
from repro.core.schedule import Schedule
from repro.core.validation import ValidationReport, verify_schedule
from repro.reductions.arbitrary import run_arbitrary
from repro.reductions.distribute import run_distribute
from repro.reductions.varbatch import run_varbatch
from repro.simulation.engine import ReconfigurationScheme


@dataclass
class PipelineResult:
    """Outcome of the full online stack on a general instance.

    ``schedule`` is ``None`` for ``record="costs"`` runs; the cost
    breakdown is still exact (bit-identical to the ``record="full"``
    one), but there is nothing to :meth:`verify`.
    """

    instance: Instance
    schedule: Schedule | None
    cost: CostBreakdown
    algorithm: str
    num_resources: int
    stages: tuple[str, ...]

    @property
    def total_cost(self) -> int:
        return self.cost.total

    def verify(self, *, strict: bool = False) -> ValidationReport:
        if self.schedule is None:
            raise RuntimeError(
                "this pipeline ran with record='costs' and has no schedule "
                "to verify; rerun with record='full'"
            )
        return verify_schedule(self.instance, self.schedule, strict=strict)


def run_pipeline(
    instance: Instance,
    num_resources: int,
    *,
    scheme_factory: Callable[[], ReconfigurationScheme] | None = None,
    copies: int = 2,
    speed: int = 1,
    record: str = "full",
) -> PipelineResult:
    """Run the appropriate reduction stack for ``instance``.

    Already-batched instances skip VarBatch; rate-limited instances with
    power-of-two bounds go straight to the core algorithm via Distribute
    (which is then a no-op recoloring).

    ``record="costs"`` runs the whole stack on the engine's schedule-free
    fast path (with sparse round skipping); the cost breakdown is exact
    but ``schedule`` comes back ``None``.
    """
    power_of_two = all(
        is_power_of_two(bound)
        for bound in instance.spec.delay_bounds.values()
    )
    if instance.spec.batch_mode.is_batched:
        result = run_distribute(
            instance,
            num_resources,
            scheme_factory=scheme_factory,
            copies=copies,
            speed=speed,
            record=record,
        )
        stages = ("Distribute", result.inner.algorithm)
        schedule, cost = result.schedule, result.cost
        algorithm = result.algorithm
    elif power_of_two:
        vb = run_varbatch(
            instance,
            num_resources,
            scheme_factory=scheme_factory,
            copies=copies,
            speed=speed,
            record=record,
        )
        stages = ("VarBatch", "Distribute", vb.distribute.inner.algorithm)
        schedule, cost = vb.schedule, vb.cost
        algorithm = vb.algorithm
    else:
        ar = run_arbitrary(
            instance,
            num_resources,
            scheme_factory=scheme_factory,
            copies=copies,
            speed=speed,
            record=record,
        )
        stages = ("ArbitraryBounds", "Distribute", ar.distribute.inner.algorithm)
        schedule, cost = ar.schedule, ar.cost
        algorithm = ar.algorithm
    return PipelineResult(
        instance=instance,
        schedule=schedule,
        cost=cost,
        algorithm=algorithm,
        num_resources=num_resources,
        stages=stages,
    )
