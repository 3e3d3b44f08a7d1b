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
skips ``Trace`` and ``Schedule`` construction, the Section 2 events
have one emission call per site (a ``drop`` carries ``eligible=True``:
the general engine keeps no eligibility, and its cost accounting
treats every drop as eligible), the ``tracer`` /
``registry`` / ``profiler`` attachments (see :mod:`repro.obs`) work the
same way, and the engine supplies only its own phases:

* **Deadline calendar** — a per-round list of the colors with a job
  deadline that round, in ascending color order, derived once per
  sequence (:attr:`~repro.core.instance.RequestSequence.deadline_calendar`),
  so the drop phase
  touches only the colors that can actually drop (within a color,
  arrivals are FIFO and share one delay bound, so the queue front is
  always the earliest deadline).
* **Round skipping** — with ``engine="sparse"`` (default) and
  ``record="costs"``, stretches with no pending jobs are fast-forwarded
  to the next arrival round in O(1) (every phase of such a round is a
  no-op).  As in the batched engine, only a policy that sets
  :attr:`~repro.simulation.engine.ReconfigurationScheme.stationary`
  qualifies; every round of any other policy is simulated.
* **Fixed-point reconfigure skipping** — policies whose pass is
  idempotent call ``at_fixed_point`` / ``mark_fixed_point`` to elide
  whole reconfiguration passes between backlog changes (arrivals,
  drops, executions), exactly as in the batched engine.

``engine="dense"`` is the reference mode: every round is simulated
and every policy pass runs in full.
"""

from __future__ import annotations

from collections import deque

from repro.core.instance import CountSequence, Instance
from repro.core.job import Job
from repro.core.schedule import Execution
from repro.simulation.engine import ReconfigurationScheme, RoundDriver, RunResult


class GeneralPolicy(ReconfigurationScheme):
    """Reconfiguration strategy for the general engine."""

    #: Stationarity (see
    #: :attr:`~repro.simulation.engine.ReconfigurationScheme.stationary`):
    #: after round 0, whenever every pending queue is empty and no
    #: arrivals intervene, ``reconfigure`` performs no cache mutations.
    #: Policies that evict on empty backlogs (or randomize) keep the
    #: ``False`` default, and the engine simulates their every round.
    stationary: bool = False


class GeneralEngine(RoundDriver):
    """Four-phase simulation of an arbitrary instance.

    Runs on the shared :class:`~repro.simulation.engine.RoundDriver`;
    this class supplies the per-job queues and the phases that read
    them.  ``engine="dense"`` is the reference mode (see
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
        engine: str = "sparse",
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
            engine=engine,
            tracer=tracer,
            registry=registry,
            profiler=profiler,
        )
        self.pending: dict[int, deque[Job]] = {
            color: deque() for color in instance.spec.delay_bounds
        }
        # Both derived once per sequence.  A round absent from the
        # deadline calendar can never drop anything (within a color,
        # FIFO order is deadline order, so the queue front bounds every
        # deadline behind it); an idle stretch (nothing pending) lasts
        # until the next arrival.
        self._calendar = instance.sequence.deadline_calendar
        self._event_rounds = instance.sequence.arrival_rounds()

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
                if self._emit is not None:
                    self._emit(
                        "drop", k, color=color, count=dropped, eligible=True
                    )
                self.cost.record_drop(color, dropped)

    def _arrival_phase(self, k: int) -> None:
        counts: dict[int, int] = {}
        for job in self.instance.sequence.arrivals(k):
            self.pending[job.color].append(job)
            self._total_pending += 1
            counts[job.color] = counts.get(job.color, 0) + 1
        if counts:
            self.order_epoch += 1
        emit = self._emit
        if emit is not None:
            for color, count in counts.items():
                emit("arrival", k, color=color, count=count)

    def _execution_phase(self, k: int, mini: int) -> None:
        if self._total_pending == 0:
            return
        schedule, emit, obs = self.schedule, self._emit, self.obs
        if schedule is None and emit is None and obs is None:
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
            color = slot.occupant
            queue = self.pending[color]
            taken = min(self.copies, len(queue))
            if not taken:
                continue
            # The slot's first ``taken`` resources run the queue's head.
            for resource in slot.resources()[:taken]:
                job = queue.popleft()
                if obs is not None:
                    obs.record_execution(color, k - job.arrival, 1)
                if schedule is not None:
                    schedule.add_execution(
                        Execution(k, mini, resource, job.jid, color)
                    )
            self._total_pending -= taken
            self.order_epoch += 1
            self.cost.record_execution(color, taken)
            if emit is not None:
                emit("execute", k, color=color, count=taken, mini=mini)

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
    engine: str = "sparse",
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
        engine=engine,
        tracer=tracer,
        registry=registry,
        profiler=profiler,
    ).run()
