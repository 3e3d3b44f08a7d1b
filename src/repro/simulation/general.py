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
so the queue front is always the earliest deadline.

Like :class:`~repro.simulation.engine.BatchedEngine`, the general engine
supports ``record="costs"`` — the fast path that skips ``Trace`` and
``Schedule`` construction when callers only need the cost breakdown —
and the full sparse core:

* **Deadline calendar** — a precomputed per-round schedule of the rounds
  carrying a job deadline, so the drop phase touches only the colors
  that can actually drop this round instead of scanning every queue
  every round (within a color, arrivals are FIFO and share one delay
  bound, so the queue front is always the earliest deadline).
* **Round skipping** — with ``sparse=True`` (default), ``record="costs"``
  and no metrics collector, stretches with no pending jobs and no
  arrivals are fast-forwarded to the next arrival round in O(1) (every
  phase of such a round is a no-op).  Which policies qualify is the same
  per-scheme contract as the batched core,
  :meth:`GeneralPolicy.fixed_point_token`: stationary policies skip
  immediately, policies with verifiable decision state skip after a
  one-round probe, and policies returning ``None`` are never skipped.
* **Fixed-point reconfigure skipping** — policies whose pass is
  idempotent call :meth:`GeneralEngine.at_fixed_point` /
  :meth:`GeneralEngine.mark_fixed_point` to elide whole reconfiguration
  passes between backlog changes, exactly as in the batched core.

It also accepts the same observability attachments as the batched
engine (``tracer`` / ``registry`` / ``profiler``, see
:mod:`repro.obs`): run/round spans, phase markers, drop/arrival/
execute/reconfig/fast-forward events, and the ``engine.*`` instrument
bundle, all strictly observational.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import deque
from types import SimpleNamespace

from repro.core.cost import CostBreakdown
from repro.core.events import (
    ArrivalEvent,
    CacheInEvent,
    CacheOutEvent,
    DropEvent,
    ExecuteEvent,
    ReconfigEvent,
    Trace,
)
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.schedule import Execution, Reconfiguration, Schedule
from repro.simulation.engine import (
    STATIONARY_TOKEN,
    EngineInstruments,
    RunResult,
    _active_tracer,
    _noop_phase,
)
from repro.simulation.metrics import MetricsCollector
from repro.simulation.resources import CachePool


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


class GeneralEngine:
    """Four-phase simulation of an arbitrary instance."""

    def __init__(
        self,
        instance: Instance,
        policy: GeneralPolicy,
        num_resources: int,
        *,
        copies: int = 1,
        speed: int = 1,
        collect_metrics: bool = False,
        record: str = "full",
        sparse: bool = True,
        tracer=None,
        registry=None,
        profiler=None,
    ) -> None:
        if num_resources <= 0 or num_resources % copies != 0:
            raise ValueError(
                f"num_resources ({num_resources}) must be a positive "
                f"multiple of copies ({copies})"
            )
        if speed not in (1, 2):
            raise ValueError("speed must be 1 (uni) or 2 (double)")
        if record not in ("full", "costs"):
            raise ValueError("record must be 'full' or 'costs'")
        self.instance = instance
        self.policy = policy
        self.num_resources = num_resources
        self.copies = copies
        self.speed = speed
        self.record = record
        self.sparse = bool(sparse)
        self.delta = instance.reconfig_cost

        self.cache = CachePool(num_resources // copies, copies)
        self.pending: dict[int, deque[Job]] = {
            color: deque() for color in instance.spec.delay_bounds
        }
        full = record == "full"
        self.schedule: Schedule | None = (
            Schedule(num_resources, speed=speed) if full else None
        )
        self.cost = CostBreakdown(instance.cost_model)
        self.trace: Trace | None = Trace() if full else None
        self.metrics = (
            MetricsCollector(instance.horizon) if collect_metrics else None
        )
        self.tracer = _active_tracer(tracer)
        self.profiler = profiler
        self.obs = EngineInstruments(registry) if registry is not None else None
        self.round_index = 0
        self.mini_round = 0
        self.rounds_executed = 0
        self._ran = False
        self._prev_counters = (0, 0, 0)
        self._total_pending = 0
        #: Monotone counter of scheme-visible backlog changes (arrivals,
        #: drops, executions); mirrors BatchedEngine.order_epoch and
        #: backs :meth:`at_fixed_point` plus the skip probe protocol.
        self.order_epoch = 0
        self._scheme_pass_epoch: int | None = None
        #: Monotone counter of cache mutations (see BatchedEngine).
        self._cache_epoch = 0
        self._probe_state: tuple | None = None
        policy.reset()

    # ------------------------------------------------------------------ run

    def run(self) -> RunResult:
        if self._ran:
            raise RuntimeError("engine instances are single-use; build a new one")
        self._ran = True
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(
                "run",
                algorithm=self.policy.name,
                resources=self.num_resources,
                speed=self.speed,
                record=self.record,
                engine="general",
                horizon=self.instance.horizon,
                delta=self.delta,
            )
        self.policy.setup(self)
        start = time.perf_counter()
        horizon = self.instance.horizon
        can_skip = (
            self.sparse and self.record == "costs" and self.metrics is None
        )
        token_fn = self.policy.fixed_point_token
        # Metrics-only runs (registry attached, no tracer/profiler) take
        # the plain branch: buffered sample appends are the only cost.
        instrumented = tracer is not None or self.profiler is not None
        obs = self.obs
        arrival_rounds = self.instance.sequence.arrival_rounds()
        num_arrival_rounds = len(arrival_rounds)
        # Deadline calendar (sparse core): the only rounds whose drop
        # phase can do anything, keyed to the colors that can drop there.
        calendar = self._build_deadline_calendar(horizon) if self.sparse else None
        ai = 0  # index of the first arrival round >= current k
        k = 0
        while k < horizon:
            self.round_index = k
            if instrumented:
                self._round_instrumented(k, calendar)
            else:
                if calendar is None:
                    self._drop_phase(k)
                elif self._total_pending:
                    deadline_colors = calendar.get(k)
                    if deadline_colors is not None:
                        self._drop_phase_sparse(k, deadline_colors)
                self._arrival_phase(k)
                for mini in range(self.speed):
                    self.mini_round = mini
                    self.policy.reconfigure(self)
                    self._execution_phase(k, mini)
                if obs is not None:
                    obs._queue_samples.append(self._total_pending)
                if self.metrics is not None:
                    self.metrics.end_round(k, self)  # type: ignore[arg-type]
            self.rounds_executed += 1
            k += 1
            if can_skip and self._total_pending == 0:
                token = token_fn()
                if token is None:
                    self._probe_state = None
                    continue
                skip = token is STATIONARY_TOKEN
                if not skip:
                    state = (self.order_epoch, self._cache_epoch, token)
                    # Probe protocol (see BatchedEngine._run_sparse):
                    # one fully executed empty round whose token and
                    # epochs came back unchanged proves the round was an
                    # identity map, and nothing differs for the rounds
                    # up to the next arrival.
                    skip = state == self._probe_state
                    self._probe_state = state
                if not skip:
                    continue
                while ai < num_arrival_rounds and arrival_rounds[ai] < k:
                    ai += 1
                next_arrival = (
                    arrival_rounds[ai] if ai < num_arrival_rounds else horizon
                )
                # No pending work and no arrivals until next_arrival:
                # drop, arrival, and execution are no-ops (empty queues
                # hold no deadlines), and the token contract proves the
                # reconfiguration phases perform no mutations.  The
                # min() clamp keeps the fast-forward inside the horizon.
                target = min(next_arrival, horizon)
                if target > k:
                    if tracer is not None:
                        tracer.event(
                            "fast_forward", k, to_round=target, rounds=target - k
                        )
                    if obs is not None:
                        obs.rounds_fast_forwarded.inc(target - k)
                k = target
            else:
                self._probe_state = None
        elapsed = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.record_wall_clock(
                elapsed, self.instance.horizon * self.speed
            )
        if obs is not None:
            obs.rounds_executed.inc(self.rounds_executed)
            obs.flush()
        if tracer is not None:
            tracer.end(
                "run",
                total_cost=self.cost.total,
                reconfig_cost=self.cost.reconfig_cost,
                drop_cost=self.cost.drop_cost,
                rounds_executed=self.rounds_executed,
                wall_seconds=round(elapsed, 6),
            )
        return RunResult(
            instance=self.instance,
            algorithm=self.policy.name,
            num_resources=self.num_resources,
            speed=self.speed,
            schedule=self.schedule,
            cost=self.cost,
            trace=self.trace,
            metrics=self.metrics,
            record=self.record,
            wall_seconds=elapsed,
            rounds_executed=self.rounds_executed,
        )

    # --------------------------------------------------------------- phases

    def _run_phase(self, name: str, k: int, fn, *args, mini: int | None = None) -> None:
        """Run one phase with trace marker + wall-clock attribution."""
        tracer, prof = self.tracer, self.profiler
        if tracer is not None:
            if mini is None:
                tracer.event("phase", k, phase=name)
            else:
                tracer.event("phase", k, phase=name, mini=mini)
        if prof is None:
            fn(*args)
        else:
            t0 = time.perf_counter()
            fn(*args)
            prof.add(name, time.perf_counter() - t0)

    def _round_instrumented(self, k: int, calendar=None) -> None:
        """One observed round (tracer/profiler/registry attached)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("round", k)
        if calendar is None:
            drop = (self._drop_phase, (k,))
        else:
            deadline_colors = (
                calendar.get(k) if self._total_pending else None
            )
            drop = (
                (self._drop_phase_sparse, (k, deadline_colors))
                if deadline_colors is not None
                else (_noop_phase, ())
            )
        self._run_phase("drop", k, drop[0], *drop[1])
        self._run_phase("arrival", k, self._arrival_phase, k)
        for mini in range(self.speed):
            self.mini_round = mini
            self._run_phase("reconfigure", k, self.policy.reconfigure, self, mini=mini)
            self._run_phase("execute", k, self._execution_phase, k, mini, mini=mini)
        if self.obs is not None:
            self.obs.sample_queue_depth(self._total_pending)
        if self.metrics is not None:
            self.metrics.end_round(k, self)  # type: ignore[arg-type]
        if tracer is not None:
            tracer.end("round", k)

    def _build_deadline_calendar(self, horizon: int) -> dict[int, list[int]]:
        """Per-round lists of colors with a job deadline that round.

        Building cost is O(num_jobs); a round absent from the calendar
        can never drop anything (within a color, FIFO order is deadline
        order, so the queue front bounds every deadline behind it).
        Deadlines at or past ``horizon`` are excluded — the dense loop
        never reaches them either.
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

    def _drop_phase(self, k: int) -> None:
        if self._total_pending == 0:
            return
        for color, queue in self.pending.items():
            if queue:
                self._drop_color(k, color, queue)

    def _drop_phase_sparse(self, k: int, colors: list[int]) -> None:
        pending = self.pending
        for color in colors:
            queue = pending[color]
            if queue:
                self._drop_color(k, color, queue)

    def _drop_color(self, k: int, color: int, queue: deque[Job]) -> None:
        obs = self.obs
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

    def at_fixed_point(self) -> bool:
        """True when the policy already completed a pass at this epoch.

        Same contract as
        :meth:`repro.simulation.engine.BatchedEngine.at_fixed_point`:
        idempotent policies call this at the top of ``reconfigure`` and
        return on True — no backlog change (arrival, drop, execution)
        happened since their last completed pass.  Only honored by the
        sparse core so dense runs keep the unoptimized baseline behavior.
        """
        if self.sparse and self._scheme_pass_epoch == self.order_epoch:
            if self.tracer is not None:
                self.tracer.event(
                    "cache_hit",
                    self.round_index,
                    target="fixed_point",
                    mini=self.mini_round,
                )
            if self.obs is not None:
                self.obs.fixed_point_skips.inc()
            return True
        return False

    def mark_fixed_point(self) -> None:
        """Record that the policy completed a full pass at this epoch."""
        self._scheme_pass_epoch = self.order_epoch

    def pending_count(self, color: int) -> int:
        return len(self.pending[color])

    def earliest_deadline(self, color: int) -> int | None:
        queue = self.pending[color]
        return queue[0].deadline if queue else None

    def nonidle_colors(self) -> list[int]:
        """Colors with pending jobs, in the consistent (ascending) order."""
        return [c for c in sorted(self.pending) if self.pending[c]]

    @property
    def states(self) -> dict[int, SimpleNamespace]:
        """Per-color views whose ``pending`` is a count, as on
        :class:`~repro.simulation.state.ColorState` (read by
        :class:`MetricsCollector`)."""
        return {c: SimpleNamespace(pending=len(q)) for c, q in self.pending.items()}

    def cache_insert(self, color: int, *, section: str = "main") -> None:
        slot, reconfigured, old_physical = self.cache.insert(color)
        self._cache_epoch += 1
        tracer = self.tracer
        if tracer is not None:
            if reconfigured:
                tracer.event(
                    "reconfig",
                    self.round_index,
                    color=color,
                    resources=len(reconfigured),
                    mini=self.mini_round,
                )
            tracer.event(
                "cache_in",
                self.round_index,
                color=color,
                section=section,
                mini=self.mini_round,
            )
        if self.obs is not None and reconfigured:
            self.obs.record_reconfig(self.round_index, len(reconfigured))
        if self.trace is None:
            self.cost.record_reconfig(color, len(reconfigured))
            return
        for resource in reconfigured:
            self.schedule.add_reconfiguration(
                Reconfiguration(self.round_index, self.mini_round, resource, color)
            )
            self.trace.append(
                ReconfigEvent(
                    self.round_index, self.mini_round, resource, old_physical, color
                )
            )
            self.cost.record_reconfig(color)
        self.trace.append(
            CacheInEvent(self.round_index, self.mini_round, color, section)
        )

    def cache_evict(self, color: int) -> None:
        self.cache.evict(color)
        self._cache_epoch += 1
        if self.trace is not None:
            self.trace.append(CacheOutEvent(self.round_index, self.mini_round, color))
        if self.tracer is not None:
            self.tracer.event(
                "cache_out", self.round_index, color=color, mini=self.mini_round
            )


def simulate_general(
    instance: Instance,
    policy: GeneralPolicy,
    num_resources: int,
    *,
    copies: int = 1,
    speed: int = 1,
    collect_metrics: bool = False,
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
        collect_metrics=collect_metrics,
        record=record,
        sparse=sparse,
        tracer=tracer,
        registry=registry,
        profiler=profiler,
    ).run()
