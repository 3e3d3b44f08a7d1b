"""Engine for general (non-batched) instances.

The Section 3.1 protocol assumes batched arrivals; baselines and the
end-to-end pipeline of Section 5 also need to operate directly on
``[Δ | 1 | D_ℓ | 1]`` instances where jobs of one color carry distinct
deadlines.  This engine implements the bare Section 2 round semantics:

* drop phase: jobs whose deadline equals the round index are dropped;
* arrival phase: the round's request is appended to per-color queues;
* reconfiguration phase: delegated to a :class:`GeneralPolicy`;
* execution phase: each physical resource executes the earliest-deadline
  pending job of its configured color.

Within a color, arrivals are FIFO and each color has a single delay bound,
so the queue front is always the earliest deadline.  Jobs are objects
here (each carries its own deadline), so the engine refuses a
:class:`~repro.core.instance.CountSequence`.

The round loop is the batched engine's
(:class:`~repro.simulation.engine.RoundDriver`): ``record="costs"``
skips ``Trace`` and ``Schedule`` construction, the ``tracer`` /
``registry`` / ``profiler`` attachments (see :mod:`repro.obs`) work the
same way, and the engine supplies only its own phases:

* **Deadline calendar** — a per-round list of the colors with a job
  deadline that round, in ascending color order, so the drop phase
  touches only the colors that can actually drop (within a color,
  arrivals are FIFO and share one delay bound, so the queue front is
  always the earliest deadline).
* **Round skipping** — with ``sparse=True`` (default) and
  ``record="costs"``, stretches with no pending jobs are fast-forwarded
  to the next arrival round in O(1) (every phase of such a round is a
  no-op).  Which policies qualify is the same per-scheme contract as
  the batched engine, :meth:`GeneralPolicy.fixed_point_token`:
  stationary policies skip immediately, policies with verifiable
  decision state skip after a one-round probe, and policies returning
  ``None`` are never skipped.
* **Fixed-point reconfigure skipping** — policies whose pass is
  idempotent call ``at_fixed_point`` / ``mark_fixed_point`` to elide
  whole reconfiguration passes between backlog changes (arrivals,
  drops, executions), exactly as in the batched engine.

``sparse=False`` is the dense reference mode: every round is simulated
and every policy pass runs in full.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque

from repro.core.events import ArrivalEvent, DropEvent, ExecuteEvent
from repro.core.instance import CountSequence, Instance
from repro.core.job import Job
from repro.core.schedule import Execution
from repro.simulation.engine import STATIONARY_TOKEN, RoundDriver, RunResult


class GeneralPolicy(ABC):
    """Reconfiguration strategy for the general engine."""

    name: str = "abstract"

    #: Stationarity contract (see
    #: :attr:`~repro.simulation.engine.ReconfigurationScheme.stationary`):
    #: after round 0, whenever every pending queue is empty and no
    #: arrivals intervene, ``reconfigure`` performs no cache mutations.
    #: Policies that evict on empty backlogs (or randomize) must keep the
    #: conservative ``False`` default — they can still opt into
    #: probe-verified skipping through :meth:`fixed_point_token`.
    stationary: bool = False

    def setup(self, engine: "GeneralEngine") -> None:
        """Hook called once before round 0 (default: no-op)."""

    def reset(self, seed: int | None = None) -> None:
        """Re-initialize per-run mutable state (default: no-op).

        Called once at engine construction, before :meth:`setup`; see
        :meth:`repro.simulation.engine.ReconfigurationScheme.reset`.
        """

    def fixed_point_token(self) -> object | None:
        """Inactive-round decision-state digest.

        Same contract as
        :meth:`repro.simulation.engine.ReconfigurationScheme.fixed_point_token`:
        ``None`` = never skip, :data:`~repro.simulation.engine.STATIONARY_TOKEN`
        = skip immediately, anything else = skip after a one-round probe
        proves the token and the engine epochs did not move.
        """
        return STATIONARY_TOKEN if self.stationary else None

    @abstractmethod
    def reconfigure(self, engine: "GeneralEngine") -> None:
        """Mutate ``engine``'s cache for the current round."""


class GeneralEngine(RoundDriver):
    """Four-phase simulation of an arbitrary instance.

    Runs on the shared :class:`~repro.simulation.engine.RoundDriver`;
    this class supplies the per-job queues and the phases that read
    them.  ``sparse=False`` is the dense reference mode (see
    :class:`~repro.simulation.engine.RoundDriver`).
    """

    engine_name = "general"

    def __init__(
        self,
        instance: Instance,
        policy: GeneralPolicy,
        num_resources: int,
        *,
        copies: int = 1,
        speed: int = 1,
        record: str = "full",
        sparse: bool = True,
        tracer=None,
        registry=None,
        profiler=None,
    ) -> None:
        if isinstance(instance.sequence, CountSequence):
            raise ValueError(
                "the general engine needs job objects, each with its own "
                "deadline, but a count sequence holds none; run it on a "
                "job sequence or use BatchedEngine with record='costs'"
            )
        super().__init__(
            instance,
            policy,
            num_resources,
            copies=copies,
            speed=speed,
            record=record,
            sparse=sparse,
            tracer=tracer,
            registry=registry,
            profiler=profiler,
        )
        self.pending: dict[int, deque[Job]] = {
            color: deque() for color in instance.spec.delay_bounds
        }
        self._calendar = self._build_calendar(instance.horizon)
        # An idle stretch (nothing pending) lasts until the next arrival.
        self._event_rounds = instance.sequence.arrival_rounds()

    def _build_calendar(self, horizon: int) -> dict[int, list[int]]:
        """Per-round lists of colors with a job deadline that round,
        each in ascending color order.

        Building cost is O(num_jobs); a round absent from the calendar
        can never drop anything (within a color, FIFO order is deadline
        order, so the queue front bounds every deadline behind it).
        Deadlines at or past ``horizon`` are excluded — no round of the
        run reaches them.
        """
        calendar: dict[int, list[int]] = {}
        for job in self.instance.sequence:
            if job.deadline >= horizon:
                continue
            bucket = calendar.get(job.deadline)
            if bucket is None:
                calendar[job.deadline] = [job.color]
            elif job.color not in bucket:
                bucket.append(job.color)
        for bucket in calendar.values():
            bucket.sort()
        return calendar

    # --------------------------------------------------------------- phases

    def _drop_phase(self, k: int) -> None:
        if not self._total_pending:
            return
        colors = self._calendar.get(k)
        if colors is None:
            return
        obs = self.obs
        for color in colors:
            queue = self.pending[color]
            dropped = 0
            while queue and queue[0].deadline <= k:
                job = queue.popleft()
                dropped += 1
                if obs is not None:
                    obs.record_drop(color, 1, k - job.arrival)
            if dropped:
                self._total_pending -= dropped
                self.order_epoch += 1
                if self.trace is not None:
                    self.trace.append(DropEvent(k, color, dropped, eligible=True))
                if self.tracer is not None:
                    self.tracer.event("drop", k, color=color, count=dropped)
                self.cost.record_drop(color, dropped)

    def _arrival_phase(self, k: int) -> None:
        trace, tracer = self.trace, self.tracer
        counts: dict[int, int] = {}
        for job in self.instance.sequence.arrivals(k):
            self.pending[job.color].append(job)
            self._total_pending += 1
            counts[job.color] = counts.get(job.color, 0) + 1
        if counts:
            self.order_epoch += 1
        if trace is not None:
            for color, count in counts.items():
                trace.append(ArrivalEvent(k, color, count))
        if tracer is not None:
            for color, count in counts.items():
                tracer.event("arrival", k, color=color, count=count)

    def _execution_phase(self, k: int, mini: int) -> None:
        schedule, trace = self.schedule, self.trace
        if self._total_pending == 0 and schedule is None:
            return
        tracer, obs = self.tracer, self.obs
        if schedule is None:
            if tracer is None and obs is None:
                # Fast path: only the execution count per color matters.
                for slot in self.cache.occupied_slots():
                    queue = self.pending[slot.occupant]
                    taken = min(self.copies, len(queue))
                    if taken:
                        for _ in range(taken):
                            queue.popleft()
                        self._total_pending -= taken
                        self.order_epoch += 1
                        self.cost.record_execution(slot.occupant, taken)
                return
            for slot in self.cache.occupied_slots():
                queue = self.pending[slot.occupant]
                taken = min(self.copies, len(queue))
                if taken:
                    for _ in range(taken):
                        job = queue.popleft()
                        if obs is not None:
                            obs.record_execution(job.color, k - job.arrival, 1)
                    self._total_pending -= taken
                    self.order_epoch += 1
                    self.cost.record_execution(slot.occupant, taken)
                    if tracer is not None:
                        tracer.event(
                            "execute", k, color=slot.occupant, count=taken, mini=mini
                        )
            return
        for slot in self.cache.occupied_slots():
            queue = self.pending[slot.occupant]
            executed = 0
            for resource in slot.resources():
                if not queue:
                    break
                job = queue.popleft()
                self._total_pending -= 1
                self.order_epoch += 1
                executed += 1
                schedule.add_execution(
                    Execution(k, mini, resource, job.jid, job.color)
                )
                trace.append(ExecuteEvent(k, mini, resource, job.color, job.jid))
                self.cost.record_execution(job.color)
                if obs is not None:
                    obs.record_execution(job.color, k - job.arrival, 1)
            if executed and tracer is not None:
                tracer.event(
                    "execute", k, color=slot.occupant, count=executed, mini=mini
                )

    # ------------------------------------------------- policy-facing helpers

    def pending_count(self, color: int) -> int:
        return len(self.pending[color])

    def earliest_deadline(self, color: int) -> int | None:
        queue = self.pending[color]
        return queue[0].deadline if queue else None

    def nonidle_colors(self) -> list[int]:
        """Colors with pending jobs, in the consistent (ascending) order."""
        return [c for c in sorted(self.pending) if self.pending[c]]


def simulate_general(
    instance: Instance,
    policy: GeneralPolicy,
    num_resources: int,
    *,
    copies: int = 1,
    speed: int = 1,
    record: str = "full",
    sparse: bool = True,
    tracer=None,
    registry=None,
    profiler=None,
) -> RunResult:
    """Build a :class:`GeneralEngine`, run it, and return the result."""
    return GeneralEngine(
        instance,
        policy,
        num_resources,
        copies=copies,
        speed=speed,
        record=record,
        sparse=sparse,
        tracer=tracer,
        registry=registry,
        profiler=profiler,
    ).run()
