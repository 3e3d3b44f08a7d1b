"""The round driver and the batched engine (Section 3.1 common protocol).

The three online algorithms of Section 3.1 "only differ in the way the
resources are reconfigured"; everything else — dropping at deadlines,
counter updates, wrapping events, eligibility transitions, replicated
execution — is the engine's job.  A
:class:`ReconfigurationScheme` receives the engine in the reconfiguration
phase of each (mini-)round and mutates the cache through
:meth:`BatchedEngine.cache_insert` / :meth:`BatchedEngine.cache_evict`,
which keep the schedule, cost breakdown, and trace consistent.

Double-speed algorithms (Section 3.3) repeat the reconfiguration and
execution phases twice per round; pass ``speed=2``.

One round driver
----------------
:class:`RoundDriver` runs the Section 2 round loop for both engines:
:class:`BatchedEngine` here and
:class:`~repro.simulation.general.GeneralEngine`.  It owns the
construction checks, :meth:`~RoundDriver.run`, the plain and
instrumented round bodies, the inactive-stretch fast-forward, the
fixed-point handshake and the cache mutators.  Each engine supplies its
drop and arrival phases (read from a calendar it builds at
construction), its execution phase, the rounds at which an idle stretch
can end, and, for the batched engine, closed-form drain settling.

Record modes (the engine fast path)
-----------------------------------
``record="full"`` (default) emits the explicit :class:`Schedule` and
:class:`Trace` the verifier and proof auditors consume.  ``record="costs"``
skips both — no per-job ``Execution`` objects, no event records — and
produces only the :class:`CostBreakdown`.  The scheme-visible state
(counters, deadlines, eligibility, pending counts, wrapping history) is
maintained identically in both modes, so costs agree exactly; sweeps,
adversary searches, and sensitivity grids that only read costs run
several times faster in ``"costs"`` mode.

Pending queues are counts: a batched color's queue holds one batch (see
:class:`ColorState`), so every phase is integer arithmetic on the
per-boundary ``arrival_counts`` the sequence derives once.

Sparse and dense modes
----------------------
The Section 3.1 protocol only *acts* on a color at integral multiples of
its delay bound: drops, deadline resets, counter updates, and
eligibility transitions are all confined to those boundary rounds.  The
**boundary calendar** — a per-round list of the colors with a
delay-bound multiple, built once per engine — lets the drop and arrival
phases touch only those colors, in both modes.  The default
``engine="sparse"`` mode adds:

* **Incremental orderings** — the ΔLRU / EDF orderings are sorted on
  per-color keys the phases store where they change them (a color's
  own boundaries, and its queue draining empty), and cached between
  the events that can change them instead of being re-derived from
  scratch every mini-round.
* **Round skipping** — in ``record="costs"`` mode, whole inactive
  stretches (no pending jobs anywhere, no boundary, no
  eligible-but-uncached color) are fast-forwarded in O(1): every phase
  of such a round is provably a no-op.  Only a scheme that sets
  :attr:`ReconfigurationScheme.stationary` qualifies; every other
  scheme simulates every round.
* **Drain settling** — with no tracer attached, a stationary scheme
  does nothing until the next boundary once every eligible color is
  cached (eligibility only changes at boundaries, and the contract
  says such a pass mutates nothing, queues running empty or not), and
  nothing until the next queue to run empty while its last completed
  pass is still current (:meth:`at_fixed_point`).  Those rounds are
  pure execution, at ``min(copies, pending)`` jobs per cached color
  and mini-round.  The engine settles such a drain stretch in one
  step: one subtraction per cached color, charged with one
  ``record_execution`` per color, and an attached registry gets the
  same queue-depth samples and execution ages (in closed form) the
  simulated rounds would have recorded, and one fixed-point skip per
  settled call.

``engine="dense"`` is the reference mode: the same driver with
fast-forward, drain settling, the order caches and fixed-point skipping
turned off, so every round and every scheme pass runs in full, and
both orderings are sorted from scratch off :class:`ColorState` (the
parity tests thereby check the stored keys).  The two
modes are cost- and trace-exact against each other (property-tested),
and dense remains the before/after benchmark baseline.

One event stream
----------------
Each Section 2 event (:data:`~repro.core.events.SECTION2_EVENTS`) has
one emission call per site, ``self._emit(name, round, **payload)``.  It
feeds the attached tracer, the ``record="full"`` :class:`Trace`, or both
(:func:`_event_emitter`), and is ``None`` when neither listens, so an
untraced ``record="costs"`` run pays one ``is None`` test per site.

Observability hooks
-------------------
Three optional, strictly observational attachments (``repro.obs``):

* ``tracer`` — a :class:`repro.obs.tracing.Tracer`; the engine opens a
  ``run`` span, a ``round`` span per simulated round, emits ``phase``
  markers (drop/arrival/reconfigure/execute), the Section 2 events, and
  ``fast_forward`` and ``cache_hit`` events.  Disabled tracers (null
  sink) are normalized to ``None`` so the hot loop pays only ``is not
  None`` checks.
* ``registry`` — a :class:`repro.obs.metrics.MetricsRegistry`;
  ``engine.*`` counters and histograms (queue depth, backlog age,
  reconfig interarrival, order-cache hits) accumulate without retaining
  per-event records.
* ``profiler`` — a :class:`repro.obs.profiling.PhaseProfiler`;
  per-phase wall-clock attribution for the ``--profile`` flame table.

None of the three ever mutates simulation state: traced and untraced
runs produce bit-identical :class:`CostBreakdown`\\ s (property-tested).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.core.cost import CostBreakdown
from repro.core.events import Trace
from repro.core.instance import CountSequence, Instance
from repro.core.schedule import Execution, Reconfiguration, Schedule
from repro.core.validation import ValidationReport, verify_schedule
from repro.simulation.resources import CachePool
from repro.simulation.state import ColorState


class EngineInstruments:
    """``engine.*`` instrument bundle over a metrics registry.

    Resolves every instrument once at construction so the round loop
    never pays registry lookups; shared by both engine cores (batched
    and general).  The registry is duck-typed (anything exposing
    ``counter``/``gauge``/``histogram`` works) so the simulation layer
    needs no import of :mod:`repro.obs`.

    Hot-path observations are *batched*: the round loop tallies
    execution ages per color and age, and appends drop-age records and
    queue-depth samples to plain lists (a few nanoseconds each);
    :meth:`flush` — called once, when the run loop ends — folds them
    into the histograms with a single ``observe(value, n)`` per
    distinct value.
    Ages are bounded by the delay bounds and queue depths repeat
    heavily, so the aggregation collapses thousands of samples into a
    handful of observes.  Histograms are order-independent, so the
    flushed snapshot is identical to the eagerly-observed one; the only
    visible difference is that a snapshot taken *mid-run* misses the
    unflushed tail (engines flush before returning their RunResult).
    """

    __slots__ = (
        "registry",
        "drops",
        "executions",
        "reconfigs",
        "rounds_executed",
        "rounds_fast_forwarded",
        "fixed_point_skips",
        "order_cache_hits",
        "order_cache_misses",
        "queue_depth",
        "backlog_age",
        "reconfig_interarrival",
        "_age_by_color",
        "_last_reconfig_round",
        "_queue_samples",
        "_age_samples",
        "_exec_ages",
        "_order_hits",
        "_order_misses",
    )

    def __init__(self, registry) -> None:
        self.registry = registry
        self.drops = registry.counter("engine.drops")
        self.executions = registry.counter("engine.executions")
        self.reconfigs = registry.counter("engine.reconfigs")
        self.rounds_executed = registry.counter("engine.rounds_executed")
        self.rounds_fast_forwarded = registry.counter("engine.rounds_fast_forwarded")
        self.fixed_point_skips = registry.counter("engine.fixed_point_skips")
        self.order_cache_hits = registry.counter("engine.order_cache_hits")
        self.order_cache_misses = registry.counter("engine.order_cache_misses")
        self.queue_depth = registry.histogram("engine.queue_depth")
        self.backlog_age = registry.histogram("engine.backlog_age")
        self.reconfig_interarrival = registry.histogram("engine.reconfig_interarrival")
        self._age_by_color: dict[int, object] = {}
        self._last_reconfig_round: int | None = None
        #: Unflushed per-round queue-depth samples.
        self._queue_samples: list[int] = []
        #: Unflushed ``(color, age, count)`` drop-age samples (drops are
        #: rare enough that tuple records are fine).
        self._age_samples: list[tuple[int, int, int]] = []
        #: Unflushed execution ages, one ``{age: count}`` tally per
        #: color; ``executions`` is derived from the tallies at flush.
        self._exec_ages: dict[int, dict[int, int]] = {}
        #: Unflushed order-cache tallies: the rank/LRU cache probe sits
        #: on the reconfigure path, so it pays a plain ``+= 1`` here
        #: instead of a ``Counter.inc`` call per probe.
        self._order_hits = 0
        self._order_misses = 0

    def _color_age(self, color: int):
        histogram = self._age_by_color.get(color)
        if histogram is None:
            histogram = self.registry.histogram(f"engine.backlog_age.color.{color}")
            self._age_by_color[color] = histogram
        return histogram

    def record_drop(self, color: int, count: int, age: int) -> None:
        self.drops.value += count
        self._age_samples.append((color, age, count))

    def record_execution(self, color: int, age: int, count: int) -> None:
        ages = self._exec_ages.get(color)
        if ages is None:
            ages = self._exec_ages[color] = {}
        ages[age] = ages.get(age, 0) + count

    def sample_queue_depth(self, depth: int) -> None:
        self._queue_samples.append(depth)

    def record_reconfig(self, round_index: int, resources: int) -> None:
        self.reconfigs.inc(resources)
        if self._last_reconfig_round is not None:
            self.reconfig_interarrival.observe(
                round_index - self._last_reconfig_round
            )
        self._last_reconfig_round = round_index

    def flush(self) -> None:
        """Fold buffered samples into the counters/histograms (idempotent)."""
        if self._order_hits:
            self.order_cache_hits.value += self._order_hits
            self._order_hits = 0
        if self._order_misses:
            self.order_cache_misses.value += self._order_misses
            self._order_misses = 0
        samples = self._queue_samples
        if samples:
            observe = self.queue_depth.observe
            for depth, n in Counter(samples).items():
                observe(depth, n)
            samples.clear()
        drops = self._age_samples
        exec_ages = self._exec_ages
        if drops or exec_ages:
            # Aggregate per color: the execution tallies are already
            # grouped that way.
            by_color: dict[int, dict[int, int]] = {}
            for color, age, count in drops:
                ages = by_color.setdefault(color, {})
                ages[age] = ages.get(age, 0) + count
            for color, tally in exec_ages.items():
                self.executions.value += sum(tally.values())
                ages = by_color.setdefault(color, {})
                for age, n in tally.items():
                    ages[age] = ages.get(age, 0) + n
            backlog_observe = self.backlog_age.observe
            for color, ages in by_color.items():
                color_observe = self._color_age(color).observe
                for age, n in ages.items():
                    backlog_observe(age, n)
                    color_observe(age, n)
            drops.clear()
            exec_ages.clear()


def _active_tracer(tracer):
    """Normalize disabled tracers (null sink) to ``None``.

    The engines' zero-overhead contract: a tracer whose sink is null
    costs exactly the same as no tracer, because the round loop only
    ever checks ``is not None``.
    """
    if tracer is not None and getattr(tracer, "enabled", True):
        return tracer
    return None


def _event_emitter(*listeners):
    """The emission call of the Section 2 events, ``(name, round,
    **payload)``: the ``event`` method of the one listener (a
    :class:`Trace` or a tracer) that is not ``None``, a call feeding
    both, or ``None`` when neither listens."""
    calls = [listener.event for listener in listeners if listener is not None]
    if len(calls) < 2:
        return calls[0] if calls else None
    first, second = calls

    def emit(name: str, round_index: int, **data) -> None:
        first(name, round_index, **data)
        second(name, round_index, **data)

    return emit


class ReconfigurationScheme(ABC):
    """Strategy invoked in the reconfiguration phase of every mini-round."""

    #: Human-readable algorithm name used in reports.
    name: str = "abstract"

    #: Stationarity contract, opted into by schemes that qualify: the
    #: scheme's ``reconfigure`` is a deterministic function of the
    #: scheme-visible engine state (eligibility, timestamps, deadlines,
    #: idleness, cache contents), and within a boundary-free stretch,
    #: whatever is pending, a pass that starts with every eligible color
    #: cached performs no cache mutations.  The four kernel schemes
    #: (ΔLRU, EDF, ΔLRU-EDF, Seq-EDF) meet it: cached colors are always
    #: eligible, they insert only uncached eligible colors, and they
    #: evict only to make room.  This is a documented contract, not a
    #: type check (``tests/test_fixed_point_contract.py`` checks it on
    #: every pass of the kernel schemes).  It is the only licence to
    #: skip: the sparse engine core fast-forwards inactive stretches of
    #: a stationary scheme, and simulates every round of any other.
    #:
    #: The batched sparse core also skips the ``reconfigure`` calls of
    #: a stationary scheme, pending work or not, up to the next
    #: boundary while every eligible color is cached, and up to the
    #: next queue to run empty while a pass completed with
    #: :meth:`BatchedEngine.mark_fixed_point` is current (see
    #: :meth:`BatchedEngine.at_fixed_point`): such drain stretches are
    #: settled without calling the scheme at all.  A scheme or subclass
    #: whose decisions read the round index, the cost counters, or
    #: pending counts must therefore not set this flag.
    stationary: bool = False

    def setup(self, engine: "BatchedEngine") -> None:
        """Hook called once before round 0 (default: no-op)."""

    def reset(self, seed: int | None = None) -> None:
        """Re-initialize per-run mutable state (default: no-op).

        Called once at engine construction, before :meth:`setup`, so a
        scheme instance reused across sweep repeats or adversary-search
        restarts starts every run from the same state.  Randomized
        schemes re-derive their generator here (from ``seed`` when
        given, else from the seed they were constructed with) so
        back-to-back runs of the same cell are bit-identical instead of
        silently continuing one RNG stream.
        """

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the scheme's mutable decision state.

        The streaming checkpoint layer persists this next to the engine
        state so a resumed run replays bit-identically.  Stateless
        schemes (the four paper kernels) return ``{}``; schemes holding
        decision state the engine cannot see — RNG streams, mark sets,
        credit vectors — must override both this and :meth:`load_state`
        to round-trip it exactly.
        """
        return {}

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (inverse operation).

        Called *after* :meth:`reset` (engine construction resets the
        scheme), overwriting the fresh state with the checkpointed one.
        The default accepts only the empty snapshot; a non-empty snapshot
        reaching a scheme without an override is a checkpoint/scheme
        mismatch and raises rather than silently dropping state.
        """
        if state:
            raise ValueError(
                f"scheme {self.name!r} has no load_state override but the "
                f"checkpoint carries state keys {sorted(state)}"
            )

    @abstractmethod
    def reconfigure(self, engine: "BatchedEngine") -> None:
        """Mutate ``engine``'s cache for the current mini-round."""


@dataclass
class RunResult:
    """Everything produced by one engine run.

    ``schedule`` and ``trace`` are ``None`` for ``record="costs"`` runs —
    the fast path never builds them.  ``trace`` holds the run's Section
    2 event records, the same records an attached tracer receives.
    ``wall_seconds`` is the wall-clock time of the round loop (instance
    construction excluded).
    ``rounds_executed`` counts the rounds the loop actually simulated;
    the sparse core may fast-forward the rest (``None`` when the engine
    predates the sparse core or did not track it).  ``rounds_total`` is
    the number of rounds this run *covered* — ``horizon`` for whole-
    instance runs, ``horizon - start_round`` for streaming segments,
    possibly 0 for an empty segment (``None`` falls back to the
    instance horizon for results built before the field existed).
    """

    instance: Instance
    algorithm: str
    num_resources: int
    speed: int
    schedule: Schedule | None
    cost: CostBreakdown
    trace: Trace | None
    record: str = "full"
    wall_seconds: float = 0.0
    rounds_executed: int | None = None
    rounds_total: int | None = None

    @property
    def total_cost(self) -> int:
        return self.cost.total

    @property
    def _covered_rounds(self) -> int:
        return (
            self.rounds_total
            if self.rounds_total is not None
            else self.instance.horizon
        )

    @property
    def rounds_per_second(self) -> float:
        """Simulated mini-rounds per wall-clock second.

        Double-speed runs execute two reconfiguration+execution phases
        per round, so the round count is scaled by ``speed`` — throughput
        rows of ``speed=2`` runs are comparable to uni-speed rows.
        Untimed results and zero-round runs (an empty streaming segment,
        a fully pre-resolved result) report 0.0 consistently instead of
        claiming positive throughput for work that never happened.
        """
        covered = self._covered_rounds
        if self.wall_seconds <= 0 or covered <= 0:
            return 0.0
        return covered * self.speed / self.wall_seconds

    @property
    def active_round_fraction(self) -> float:
        """Fraction of covered rounds the loop simulated.

        1.0 when the engine did not track skips; 0.0 for a zero-round
        run (nothing was covered, so nothing was simulated — the
        convention matches :meth:`rounds_per_second` returning 0.0
        rather than dividing by zero).
        """
        covered = self._covered_rounds
        if covered <= 0:
            return 0.0
        if self.rounds_executed is None:
            return 1.0
        return self.rounds_executed / covered

    def require_full(self) -> None:
        """Refuse a ``record="costs"`` run where its schedule or trace
        is needed."""
        if self.schedule is None:
            raise RuntimeError(
                "this run used record='costs' and has no schedule or "
                "trace; rerun with record='full'"
            )

    def verify(self, *, strict: bool = False) -> ValidationReport:
        """Re-check the emitted schedule against the instance."""
        self.require_full()
        return verify_schedule(self.instance, self.schedule, strict=strict)


def check_geometry(num_resources: int, copies: int, speed: int) -> None:
    """Reject a resource count or speed no engine can run."""
    if num_resources <= 0 or num_resources % copies != 0:
        raise ValueError(
            f"num_resources ({num_resources}) must be a positive "
            f"multiple of copies ({copies})"
        )
    if speed not in (1, 2):
        raise ValueError("speed must be 1 (uni) or 2 (double)")


class RoundDriver:
    """The Section 2 round protocol, shared by the batched and general engines.

    Every round runs the drop, arrival, reconfiguration and execution
    phases, the last two ``speed`` times (Section 3.3); the schemes
    "only differ in the way the resources are reconfigured".  The driver
    owns everything the engines have in common: the construction
    checks, :meth:`run` and its :class:`RunResult`, the round loop
    (plain and instrumented), the inactive-stretch fast-forward, the
    fixed-point handshake with the scheme
    (:meth:`at_fixed_point` / :meth:`mark_fixed_point`) and the cache
    mutators (:meth:`cache_insert` / :meth:`cache_evict`).  An engine
    supplies the rest:

    * ``_drop_phase(k)`` and ``_arrival_phase(k)``, read from the
      calendar it builds at construction;
    * ``_execution_phase(k, mini)``;
    * ``_event_rounds``, the ascending rounds at which an idle stretch
      can end.  The engine is idle when nothing is pending and no
      eligible color waits outside the cache (``_total_pending`` and
      ``_num_eligible_uncached`` are both zero; the general engine has
      no eligibility, so only its backlog counts);
    * optionally ``_settle_drain(k, end)``, which settles a stretch of
      pure execution in closed form (the batched engine).

    ``engine="dense"`` is the reference mode: the same loop with
    fast-forward, drain settling, the order caches and fixed-point
    skipping turned off, so every round is simulated and every scheme
    pass runs in full; ``engine="sparse"`` turns them on.
    """

    #: Backend identifier surfaced in the run span and bench rows.
    engine_name: str
    #: Closed-form drain settling, ``(k, end) -> next round``; engines
    #: that have none leave it ``None``.
    _settle_drain = None

    def __init__(
        self,
        instance: Instance,
        scheme,
        num_resources: int,
        *,
        copies: int,
        speed: int,
        record: str,
        engine: str,
        start_round: int = 0,
        tracer=None,
        registry=None,
        profiler=None,
        reconfig_observer=None,
    ) -> None:
        if engine not in ("sparse", "dense"):
            raise ValueError(
                f"{type(self).__name__} runs engine='sparse' or 'dense', not "
                f"{engine!r}; the vectorized backend is VectorizedEngine"
            )
        check_geometry(num_resources, copies, speed)
        if record not in ("full", "costs"):
            raise ValueError("record must be 'full' or 'costs'")
        if not 0 <= start_round <= instance.horizon:
            raise ValueError(
                f"start_round {start_round} outside [0, {instance.horizon}]"
            )
        self.instance = instance
        self.scheme = scheme
        self.num_resources = num_resources
        self.copies = copies
        self.speed = speed
        self.record = record
        self.sparse = engine == "sparse"
        self.delta = instance.reconfig_cost
        self.cache = CachePool(num_resources // copies, copies)
        full = record == "full"
        self.schedule: Schedule | None = (
            Schedule(num_resources, speed=speed) if full else None
        )
        self.cost = CostBreakdown(instance.cost_model)
        self.trace: Trace | None = Trace() if full else None
        self.tracer = _active_tracer(tracer)
        self._emit = _event_emitter(self.trace, self.tracer)
        self.profiler = profiler
        #: Optional ``(color, resources)`` callback fired on every cache
        #: insert that physically reconfigured resources, in event order.
        #: Lets reduction pipelines stream the outer-schedule reconfig
        #: accounting in ``record="costs"`` mode, where no Schedule object
        #: exists to map back (see reductions/distribute.py).
        self._reconfig_observer = reconfig_observer
        self.obs = EngineInstruments(registry) if registry is not None else None
        self.start_round = start_round
        self.round_index = start_round
        self.mini_round = 0
        self.rounds_executed = 0
        self._ran = False
        #: Per-color Section 3.1 state (counter, deadline, eligibility);
        #: the general engine keeps none, so none of its colors is ever
        #: eligible.
        self.states: dict[int, ColorState] = {}
        self._total_pending = 0
        self._num_eligible_uncached = 0
        #: Monotone counter of scheme-visible changes (eligibility,
        #: timestamps, deadlines, idleness, backlogs).  Stationary
        #: schemes use it to skip a reconfiguration pass entirely when
        #: nothing changed since their last completed pass.
        self.order_epoch = 0
        #: Epoch at which the scheme last completed a reconfiguration
        #: pass (see :meth:`at_fixed_point`); ``None`` until it does.
        self._scheme_pass_epoch: int | None = None
        scheme.reset()

    # ------------------------------------------------------------------ run

    def run(self) -> RunResult:
        """Simulate rounds ``[start_round, horizon)``; return the results."""
        if self._ran:
            raise RuntimeError("engine instances are single-use; build a new one")
        self._ran = True
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(
                "run",
                algorithm=self.scheme.name,
                resources=self.num_resources,
                speed=self.speed,
                record=self.record,
                engine=self.engine_name,
                horizon=self.instance.horizon,
                delta=self.delta,
            )
        if self.start_round == 0:
            # Mid-run segments (start_round > 0) carry the scheme state of
            # their predecessor; setup belongs to round 0 of the global run.
            self.scheme.setup(self)
        start = time.perf_counter()
        self._run_rounds()
        elapsed = time.perf_counter() - start
        if self.obs is not None:
            self.obs.rounds_executed.inc(self.rounds_executed)
            self.obs.flush()
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
            algorithm=self.scheme.name,
            num_resources=self.num_resources,
            speed=self.speed,
            schedule=self.schedule,
            cost=self.cost,
            trace=self.trace,
            record=self.record,
            wall_seconds=elapsed,
            rounds_executed=self.rounds_executed,
            rounds_total=self.instance.horizon - self.start_round,
        )

    def _run_rounds(self) -> None:
        """Simulate each round, then fast-forward what can be proven.

        After each simulated round of a sparse ``record="costs"`` run
        of a stationary scheme the loop tries two skips:

        * an *inactive stretch* (the engine is idle) jumps to the next
          event round: the stationarity contract makes its rounds
          no-ops;
        * a *drain stretch* (an engine with ``_settle_drain``, a scheme
          that has every eligible color cached or whose last completed
          pass is still current, no tracer attached) is settled in
          closed form: only execution happens until the next event
          round.  With every eligible color cached it ends earlier only
          when the last queue runs empty and nothing is pending outside
          the cache, so the inactive-stretch skip takes over; otherwise
          it ends at the first queue to run empty.

        Every round of a non-stationary scheme is simulated.
        """
        horizon = self.instance.horizon
        events = self._event_rounds
        num_events = len(events)
        tr, obs, prof = self.tracer, self.obs, self.profiler
        # Skipping is only sound when nothing observes the skipped rounds
        # (no trace or schedule) and the scheme is stationary.  The
        # attachments (tracer/registry/profiler) do NOT disable it:
        # skipped rounds are provable global no-ops, so the trace
        # records a single ``fast_forward`` event instead of empty rounds.
        can_skip = self.sparse and self.record == "costs" and self.scheme.stationary
        # A tracer asks for per-round events (execute, cache_hit), so
        # traced runs keep simulating drain rounds one by one.
        settle = self._settle_drain if can_skip and tr is None else None
        # Registry-only runs take the plain round body; the span/phase
        # indirection is only worth paying when a tracer or profiler
        # consumes the markers.
        instrumented = tr is not None or prof is not None
        # Sampling cooperation (repro.obs.sampling): a tracer exposing
        # ``keep_round(k)`` lets the loop run the plain round body for
        # sampled-out rounds, shedding the span/phase indirection — not
        # just the sink writes.  A profiler wants every round timed, so
        # it disables the shortcut (records are still suppressed at
        # emission by the sampling tracer itself).
        round_filter = getattr(tr, "keep_round", None) if prof is None else None
        queue_append = obs._queue_samples.append if obs is not None else None
        drop, arrive = self._drop_phase, self._arrival_phase
        reconfigure, execute = self.scheme.reconfigure, self._execution_phase
        minis = range(self.speed)

        def next_event(k: int) -> int:
            i = bisect_left(events, k)
            return events[i] if i < num_events else horizon

        k = self.start_round
        while k < horizon:
            self.round_index = k
            if instrumented and (round_filter is None or round_filter(k)):
                self._round_instrumented(k)
            else:
                drop(k)
                arrive(k)
                for mini in minis:
                    self.mini_round = mini
                    reconfigure(self)
                    execute(k, mini)
                if queue_append is not None:
                    queue_append(self._total_pending)
            self.rounds_executed += 1
            k += 1
            if not can_skip:
                continue
            if self._total_pending or self._num_eligible_uncached:
                if settle is None or (
                    self._num_eligible_uncached
                    and self._scheme_pass_epoch != self.order_epoch
                ):
                    continue
                # Drain stretch: up to the next event round every
                # reconfigure call would return at at_fixed_point, or
                # would start with every eligible color cached and so
                # mutate nothing; only execution happens, and it settles
                # in closed form.
                end = next_event(k)
                if end == k:
                    continue  # round k is an event round
                if prof is None:
                    k = settle(k, end)
                else:
                    t0 = time.perf_counter()
                    k = settle(k, end)
                    prof.add("execute", time.perf_counter() - t0)
                if self._total_pending or self._num_eligible_uncached:
                    continue
                # The settle ran the last queue empty: what follows is an
                # inactive stretch, skipped as after a simulated round.
            # Every round in [k, target) is a global no-op: no drops or
            # arrivals (no event round), no executions (nothing pending),
            # and the stationarity contract proves the reconfiguration
            # phases perform no mutations.  With no event round left the
            # target is the horizon; no end-of-horizon drop can be lost to
            # that because instances place every deadline before
            # ``horizon``, making each drop round an event round the skip
            # lands on, never jumps over — pinned by the horizon-edge
            # tests.
            target = next_event(k)
            if target > k:
                if tr is not None:
                    tr.event(
                        "fast_forward", k, to_round=target, rounds=target - k
                    )
                if obs is not None:
                    obs.rounds_fast_forwarded.inc(target - k)
            k = target

    def _round_instrumented(self, k: int) -> None:
        """One observed round: span, phase markers, profiler phases and
        the queue-depth sample."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("round", k)
        self._run_phase("drop", k, self._drop_phase, k)
        self._run_phase("arrival", k, self._arrival_phase, k)
        for mini in range(self.speed):
            self.mini_round = mini
            self._run_phase("reconfigure", k, self.scheme.reconfigure, self, mini=mini)
            self._run_phase("execute", k, self._execution_phase, k, mini, mini=mini)
        if self.obs is not None:
            self.obs.sample_queue_depth(self._total_pending)
        if tracer is not None:
            tracer.end("round", k)

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

    # ------------------------------------------------- scheme-facing helpers

    def at_fixed_point(self) -> bool:
        """True when the scheme already completed a pass at this epoch.

        Stationary schemes call this at the top of ``reconfigure`` and
        return immediately on True: nothing they look at (eligibility,
        timestamps, deadlines, idleness, backlogs, cache contents) has
        changed since their last completed pass, and a completed pass of
        a stationary scheme is idempotent.  Always False in dense mode,
        which runs every pass in full.

        Where the engine settles drain stretches (the batched engine),
        the loop goes one step further for a stationary scheme: while
        this would return True, or while every eligible color is cached
        (the stationarity contract makes such a pass a no-op), it skips
        the ``reconfigure`` calls altogether and settles the rounds in
        closed form (untraced ``record="costs"`` runs), counting each
        skipped call in ``engine.fixed_point_skips`` as if it had
        returned here.
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
        """Record that the scheme completed a full pass at this epoch."""
        self._scheme_pass_epoch = self.order_epoch

    def cache_insert(self, color: int, *, section: str = "main") -> None:
        """Bring ``color`` into the cache, recording costs and events."""
        _, reconfigured, _ = self.cache.insert(color)
        if self._reconfig_observer is not None and reconfigured:
            self._reconfig_observer(color, reconfigured)
        st = self.states.get(color)
        if st is not None and st.eligible:
            self._num_eligible_uncached -= 1
        emit = self._emit
        if emit is not None:
            if reconfigured:
                emit(
                    "reconfig",
                    self.round_index,
                    color=color,
                    resources=len(reconfigured),
                    mini=self.mini_round,
                )
            emit(
                "cache_in",
                self.round_index,
                color=color,
                section=section,
                mini=self.mini_round,
            )
        if self.obs is not None and reconfigured:
            self.obs.record_reconfig(self.round_index, len(reconfigured))
        schedule = self.schedule
        if schedule is None:
            self.cost.record_reconfig(color, len(reconfigured))
            return
        for resource in reconfigured:
            schedule.add_reconfiguration(
                Reconfiguration(self.round_index, self.mini_round, resource, color)
            )
            self.cost.record_reconfig(color)

    def cache_evict(self, color: int) -> None:
        """Drop ``color`` from the cache (free of charge; slots persist)."""
        self.cache.evict(color)
        st = self.states.get(color)
        if st is not None and st.eligible:
            self._num_eligible_uncached += 1
        if self._emit is not None:
            self._emit(
                "cache_out", self.round_index, color=color, mini=self.mini_round
            )


class BatchedEngine(RoundDriver):
    """Drives a reconfiguration scheme over a batched instance.

    Parameters
    ----------
    instance:
        Must be declared ``BATCHED`` or ``RATE_LIMITED``.
    scheme:
        The reconfiguration strategy (ΔLRU, EDF, ΔLRU-EDF, Seq-EDF, ...).
    num_resources:
        ``n``; must be divisible by ``copies``.
    copies:
        Replication factor: each cached color occupies this many physical
        resources (2 for the Section 3.1 algorithms, 1 for Seq-EDF).
    speed:
        1 for uni-speed, 2 for double-speed (Section 3.3).
    record:
        ``"full"`` emits the schedule and trace; ``"costs"`` skips both
        (fast path) and only maintains the cost breakdown.
    engine:
        ``"sparse"`` (default) caches the orderings and (in ``"costs"``
        mode, for a stationary scheme) fast-forwards inactive stretches
        and settles drain stretches; ``"dense"`` is the reference mode
        that simulates every round and every scheme pass in full.  Both
        produce identical costs, schedules, and traces.
    start_round:
        First round to simulate (default 0).  Streaming sessions run a
        long horizon as a chain of segment engines: each segment covers
        global rounds ``[start_round, horizon)`` with the predecessor's
        exported state loaded via :meth:`import_state`.  Round indices
        stay global, so deadlines, boundary calendars, and ΔLRU
        timestamps are identical to one uninterrupted run.
    """

    def __init__(
        self,
        instance: Instance,
        scheme: ReconfigurationScheme,
        num_resources: int,
        *,
        copies: int = 2,
        speed: int = 1,
        record: str = "full",
        engine: str = "sparse",
        start_round: int = 0,
        tracer=None,
        registry=None,
        profiler=None,
        reconfig_observer=None,
    ) -> None:
        if not instance.spec.batch_mode.is_batched:
            raise ValueError(
                "BatchedEngine requires a batched instance; wrap general "
                "instances with the VarBatch reduction first"
            )
        if record == "full" and isinstance(instance.sequence, CountSequence):
            raise ValueError(
                "record='full' names every executed job, but a count "
                "sequence holds no jobs; use record='costs'"
            )
        super().__init__(
            instance,
            scheme,
            num_resources,
            copies=copies,
            speed=speed,
            record=record,
            engine=engine,
            start_round=start_round,
            tracer=tracer,
            registry=registry,
            profiler=profiler,
            reconfig_observer=reconfig_observer,
        )
        self.engine_name = engine
        #: ``{round: {color: count}}``, derived once per sequence.
        self._arrival_counts = instance.sequence.arrival_counts
        self.states = {
            color: ColorState(color, bound)
            for color, bound in instance.spec.delay_bounds.items()
        }
        # Incremental bookkeeping, maintained in both modes: the eligible
        # colors as a sorted list, and each eligible color's EDF key
        # ``(idle, dd, D, color)`` and ΔLRU key ``(-timestamp, color)``,
        # stored where the phases change them.  The two orderings are
        # sorted on the stored keys and cached between the events that
        # can change them; only sparse mode reads either.
        self._eligible_sorted: list[int] = []
        self._edf_keys: dict[int, tuple] = {}
        self._lru_keys: dict[int, tuple] = {}
        self._rank_cache: list[int] | None = None
        self._lru_cache: list[int] | None = None
        self._calendar, self._event_rounds = self._build_calendar(
            instance.horizon
        )

    def _build_calendar(
        self, horizon: int
    ) -> tuple[dict[int, list[int]], list[int]]:
        """Per-round lists of colors with a delay-bound multiple, and the
        calendar's rounds in ascending order.

        These boundary rounds are the only rounds the Section 3.1
        protocol drops, arrives, resets deadlines, updates counters or
        changes eligibility on.  Building cost is ``Σ_ℓ (horizon -
        start) / D_ℓ`` — proportional to the boundary events inside the
        simulated window, not ``horizon × colors`` (segment engines pay
        only for their own window).  Each round's list keeps the order
        in which the spec declares its colors.
        """
        calendar: dict[int, list[int]] = {}
        for color, st in self.states.items():
            for k in st.boundaries(horizon, self.start_round):
                bucket = calendar.get(k)
                if bucket is None:
                    calendar[k] = [color]
                else:
                    bucket.append(color)
        return calendar, sorted(calendar)

    def _settle_drain(self, k: int, end: int) -> int:
        """Settle the drain stretch that starts at round ``k``.

        The caller guarantees that ``[k, end)`` holds no boundary and
        that no ``reconfigure`` call of the stationary scheme in it
        would mutate the cache, so each cached color just runs
        ``min(copies, pending)`` jobs per mini-round.  How far that
        holds depends on why the calls are no-ops:

        * every eligible color is cached: by the stationarity contract
          no pass mutates anything until the next boundary, queues
          running empty or not.  The stretch runs to ``end``, or, when
          nothing is pending outside the cache, to the round in which
          the last queue empties; the inactive-stretch skip takes over
          from there;
        * otherwise the scheme's last pass is current, which holds only
          until a queue runs empty (the idle flip bumps ``order_epoch``):
          the stretch ends at ``end`` or with the first round in which
          a queue empties, provided it empties in that round's last
          mini-round; an earlier emptying reruns the pass within the
          round, which then runs normally.

        Returns the next round to simulate (``k`` if none settles).
        """
        copies, speed = self.copies, self.speed
        per_round = copies * speed
        states = self.states
        draining = []
        for slot in self.cache.occupied_slots():
            st = states[slot.occupant]
            if st.pending:
                draining.append(st)
        dt = end - k
        if self._num_eligible_uncached:
            for st in draining:
                # Mini-rounds until the queue empties, in whole rounds.
                dt = min(dt, -(-st.pending // copies) // speed)
        elif self._total_pending == sum(st.pending for st in draining):
            # Rounds until the last queue empties.
            dt = min(dt, max(-(-st.pending // per_round) for st in draining))
        if dt <= 0:
            return k
        obs = self.obs
        if obs is not None and dt > 1:
            # After j settled rounds each draining color has run
            # min(pending, per_round * j) jobs, so the depth is linear in
            # j between the rounds in which queues empty: one range per
            # piece.  The last round's sample is the final depth,
            # appended below.
            samples = obs._queue_samples
            base, slope, j = self._total_pending, per_round * len(draining), 1
            for full, pending in sorted(
                (st.pending // per_round, st.pending) for st in draining
            ):
                # Up to round j = full this color still runs per_round
                # jobs a round; after it, its whole queue is gone.
                top = min(full, dt - 1)
                if top >= j:
                    samples.extend(
                        range(base - slope * j, base - slope * (top + 1), -slope)
                    )
                    j = top + 1
                base -= pending
                slope -= per_round
            samples.extend([base] * (dt - j))
        budget = per_round * dt
        for st in draining:
            pending = st.pending
            n = min(budget, pending)
            st.pending = pending - n
            if obs is not None:
                # The i-th job taken runs in round k + i // per_round:
                # whole rounds of per_round jobs, then the remainder.
                age = k - st.arrival
                whole, rest = divmod(n, per_round)
                for j in range(whole):
                    obs.record_execution(st.color, age + j, per_round)
                if rest:
                    obs.record_execution(st.color, age + whole, rest)
            self._total_pending -= n
            if n == pending:
                self.order_epoch += 1
                self._rank_cache = None
                self._edf_keys[st.color] = (True, st.dd, st.delay_bound, st.color)
            self.cost.record_execution(st.color, n)
        if obs is not None:
            obs._queue_samples.append(self._total_pending)
            obs.fixed_point_skips.inc(dt * speed)
            obs.rounds_fast_forwarded.inc(dt)
        return k + dt

    # --------------------------------------------------------------- phases

    def _drop_phase(self, k: int) -> None:
        colors = self._calendar.get(k)
        if colors is None:
            return
        # dd, timestamps, and eligibility may all change this round.
        self._touch_orders()
        if k == 0:
            # Round 0 is a multiple of every bound but nothing can be
            # pending yet and eligibility is vacuously false.
            return
        states = self.states
        for color in colors:
            self._drop_one(k, color, states[color])

    def _drop_one(self, k: int, color: int, st: ColorState) -> None:
        dropped = st.pending
        emit = self._emit
        if dropped:
            st.pending = 0
            self._total_pending -= dropped
            self.cost.record_drop(color, dropped, eligible=st.eligible)
            if emit is not None:
                emit("drop", k, color=color, count=dropped, eligible=st.eligible)
            if self.obs is not None:
                # Dropped jobs arrived at the previous boundary of this
                # color, so every one ages out at exactly its bound.
                self.obs.record_drop(color, dropped, st.delay_bound)
        if st.eligible and color not in self.cache:
            st.eligible = False
            st.cnt = 0
            self._eligible_remove(color)
            if emit is not None:
                emit("ineligible", k, color=color)

    def _arrival_phase(self, k: int) -> None:
        colors = self._calendar.get(k)
        if colors is None:
            return
        states = self.states
        counts = self._arrival_counts.get(k)
        if self.schedule is not None and counts:
            # Full record: keep each batch's jobs so executions name jids.
            jobs: dict[int, list] = {}
            for job in self.instance.sequence.arrivals(k):
                jobs.setdefault(job.color, []).append(job)
            for color, batch in jobs.items():
                states[color].jobs = batch
        for color in colors:
            count = counts.get(color, 0) if counts else 0
            self._arrive_one(k, color, states[color], count)

    def _arrive_one(self, k: int, color: int, st: ColorState, count: int) -> None:
        # timestamp(k) is the latest wrap before k, and wraps fall only
        # on this color's boundaries: it moved since the previous one
        # only if the color wrapped there.
        moved = st.last_wrap == k - st.delay_bound
        was_eligible = st.eligible
        st.dd = k + st.delay_bound
        st.cnt += count
        emit = self._emit
        if count and emit is not None:
            emit("arrival", k, color=color, count=count)
        if st.cnt >= self.delta:
            # One batch can advance the counter past several multiples
            # of Δ (a rate-limited batch of size D_ℓ ≥ 2Δ already
            # does); each crossed multiple is its own wrapping event —
            # the credit auditors count wraps, not arrival rounds — and
            # the one ``wrap`` record carries their ``count``.
            wraps, st.cnt = divmod(st.cnt, self.delta)
            st.record_wrap(k)
            if emit is not None:
                emit("wrap", k, color=color, count=wraps)
            if not st.eligible:
                st.eligible = True
                self._eligible_add(color)
                if emit is not None:
                    emit("eligible", k, color=color)
        if count:
            st.add_batch(k, count)
            self._total_pending += count
        if st.eligible:
            # dd and the timestamp move only at the color's own
            # boundaries, so its keys are rewritten here (and the EDF key
            # again when its queue runs empty); the ΔLRU key only when
            # the color just turned eligible or its timestamp moved.
            self._edf_keys[color] = (not st.pending, st.dd, st.delay_bound, color)
            if moved or not was_eligible:
                self._lru_keys[color] = (-st.timestamp(k), color)
        if emit is not None:
            # Timestamp updates drive the super-epoch machinery (§3.4).
            ts = st.timestamp(k)
            if ts != st.last_timestamp:
                st.last_timestamp = ts
                emit("timestamp", k, color=color, timestamp=ts)

    def _execution_phase(self, k: int, mini: int) -> None:
        if self._total_pending == 0:
            return
        schedule, emit, obs = self.schedule, self._emit, self.obs
        copies, states = self.copies, self.states
        for slot in self.cache.occupied_slots():
            color = slot.occupant
            st = states[color]
            pending = st.pending
            if not pending:
                continue
            taken = copies if pending > copies else pending
            st.pending = pending - taken
            self._total_pending -= taken
            if taken == pending:
                # Idle flips reorder the EDF ranking (idleness is its
                # leading sort key); recency is unaffected.
                self.order_epoch += 1
                self._rank_cache = None
                self._edf_keys[color] = (True, st.dd, st.delay_bound, color)
            self.cost.record_execution(color, taken)
            if obs is not None:
                obs.record_execution(color, k - st.arrival, taken)
            if schedule is not None:
                # The pending jobs are the batch's tail; take its head.
                first = len(st.jobs) - pending
                for resource, job in zip(
                    slot.resources(), st.jobs[first : first + taken]
                ):
                    schedule.add_execution(
                        Execution(k, mini, resource, job.jid, color)
                    )
            if emit is not None:
                emit("execute", k, color=color, count=taken, mini=mini)

    # ------------------------------------------ incremental eligible tracking

    def _touch_orders(self) -> None:
        """Note an ordering-relevant state change (boundary processing)."""
        self.order_epoch += 1
        self._rank_cache = None
        self._lru_cache = None

    def _eligible_add(self, color: int) -> None:
        insort(self._eligible_sorted, color)
        if color not in self.cache:
            self._num_eligible_uncached += 1

    def _eligible_remove(self, color: int) -> None:
        # Only ever called from the drop phase, where the color is
        # uncached by definition (cached colors keep their eligibility).
        self._eligible_sorted.remove(color)
        self._num_eligible_uncached -= 1

    # ------------------------------------------------- checkpoint/restore

    def export_state(self) -> dict:
        """JSON-ready snapshot of all cost-relevant engine state.

        Captures the canonical state only — per-color counters,
        deadlines, eligibility, wrap history, pending batches, the cache
        pool (occupant *and* physical color per slot), and the
        accumulated :class:`CostBreakdown`.  Derived bookkeeping (the
        eligible ordering, the order caches, the fixed-point epoch) is
        recomputed by :meth:`import_state`: it only accelerates the
        sparse core and never changes costs, so leaving it out keeps
        the snapshot minimal and the restore trivially consistent.

        Scheme state is *not* included — schemes serialize themselves
        through :meth:`ReconfigurationScheme.state_dict`; the streaming
        checkpoint layer persists both side by side.
        """
        colors = {}
        for color, st in self.states.items():
            colors[str(color)] = {
                "cnt": st.cnt,
                "dd": st.dd,
                "eligible": st.eligible,
                "last_wrap": st.last_wrap,
                "prev_wrap": st.prev_wrap,
                "last_timestamp": st.last_timestamp,
                # Color and delay bound are implied by the key; the
                # pending batch is its arrival round and its count.
                "pending": [st.arrival, st.pending],
            }
        return {
            "colors": colors,
            "cache": self.cache.state_dict(),
            "cost": self.cost.to_dict(),
        }

    def import_state(self, state: dict) -> None:
        """Load an :meth:`export_state` snapshot into a fresh engine.

        Must be called before :meth:`run`.  The snapshot's color set
        must match the instance spec; the cost model must match the
        instance's.  After the load, a run over ``[start_round,
        horizon)`` continues the checkpointed run exactly: the restored
        state plus global round indexing make every phase decision
        identical to the uninterrupted engine's.  A ``record="full"``
        engine cannot import pending jobs: the snapshot holds counts, not
        the job ids its schedule would have to name.
        """
        if self._ran:
            raise RuntimeError("cannot import state into an engine that ran")
        colors = state["colors"]
        if set(colors) != {str(c) for c in self.states}:
            raise ValueError(
                "checkpoint colors do not match the instance spec"
            )
        for color, st in self.states.items():
            data = colors[str(color)]
            st.cnt = data["cnt"]
            st.dd = data["dd"]
            st.eligible = data["eligible"]
            st.last_wrap = data["last_wrap"]
            st.prev_wrap = data["prev_wrap"]
            st.last_timestamp = data["last_timestamp"]
            st.arrival, st.pending = data["pending"]
            if st.pending and self.schedule is not None:
                raise ValueError(
                    f"color {color}: a record='full' engine cannot name "
                    "the jobs of an imported pending batch"
                )
        self.cache.load_state(state["cache"])
        cost = CostBreakdown.from_dict(state["cost"])
        if cost.model != self.instance.cost_model:
            raise ValueError(
                "checkpoint cost model does not match the instance"
            )
        self.cost = cost
        # Rebuild the derived sparse-core bookkeeping from the canonical
        # state; the order caches and the fixed-point epoch start cold
        # (cost-neutral).
        self._total_pending = sum(st.pending for st in self.states.values())
        self._eligible_sorted = sorted(
            c for c, st in self.states.items() if st.eligible
        )
        self._num_eligible_uncached = sum(
            1 for c in self._eligible_sorted if c not in self.cache
        )
        self._edf_keys = {c: self._rank_key(c) for c in self._eligible_sorted}
        self._lru_keys = {
            c: (-self.states[c].timestamp(self.start_round), c)
            for c in self._eligible_sorted
        }
        self._rank_cache = None
        self._lru_cache = None
        self._scheme_pass_epoch = None

    # ------------------------------------------------- scheme-facing helpers

    def state(self, color: int) -> ColorState:
        return self.states[color]

    def eligible_colors(self) -> list[int]:
        """Eligible colors in the consistent (ascending color) order."""
        if self.sparse:
            return list(self._eligible_sorted)
        return [c for c in sorted(self.states) if self.states[c].eligible]

    def timestamp(self, color: int) -> int:
        """ΔLRU timestamp of ``color`` as of the current round."""
        return self.states[color].timestamp(self.round_index)

    def rank_eligible(self, colors: Sequence[int] | None = None) -> list[int]:
        """EDF ranking (Section 3.1.2 / 3.3), best rank first.

        Nonidle colors come first; then ascending deadline, breaking ties
        by increasing delay bound, then the consistent order of colors.
        In sparse mode, calls over the full eligible pool sort on the
        stored keys and are cached between the events that can reorder
        them (phase boundaries, idle flips); dense mode and explicit
        pools sort from scratch.
        """
        if colors is None and self.sparse:
            if self._rank_cache is None:
                if self.obs is not None:
                    self.obs._order_misses += 1
                self._rank_cache = sorted(
                    self._eligible_sorted, key=self._edf_keys.__getitem__
                )
            elif self.obs is not None:
                self.obs._order_hits += 1
            return list(self._rank_cache)
        pool = self.eligible_colors() if colors is None else list(colors)
        return sorted(pool, key=self._rank_key)

    def _rank_key(self, color: int):
        st = self.states[color]
        return (st.idle, st.dd, st.delay_bound, color)

    def lru_order(self, colors: Sequence[int] | None = None) -> list[int]:
        """Eligible colors by timestamp recency (most recent first).

        Ties broken by the consistent order of colors for determinism.
        In sparse mode, full-pool calls sort on the stored keys and are
        cached between phase boundaries (timestamps only move at
        delay-bound multiples); dense mode and explicit pools sort from
        scratch.
        """
        if colors is None and self.sparse:
            if self._lru_cache is None:
                if self.obs is not None:
                    self.obs._order_misses += 1
                self._lru_cache = sorted(
                    self._eligible_sorted, key=self._lru_keys.__getitem__
                )
            elif self.obs is not None:
                self.obs._order_hits += 1
            return list(self._lru_cache)
        pool = self.eligible_colors() if colors is None else list(colors)
        now = self.round_index
        return sorted(pool, key=lambda c: (-self.states[c].timestamp(now), c))


#: Engine backends accepted by :func:`simulate`'s ``engine`` selector.
ENGINE_NAMES = ("sparse", "dense", "vectorized")


def simulate(
    instance: Instance,
    scheme: ReconfigurationScheme,
    num_resources: int,
    *,
    copies: int = 2,
    speed: int = 1,
    record: str = "full",
    engine: str | None = None,
    tracer=None,
    registry=None,
    profiler=None,
    reconfig_observer=None,
) -> RunResult:
    """Build an engine, run it, and return the result.

    ``engine`` selects the backend by name: ``"sparse"`` (the default,
    also for ``None``), ``"dense"`` (the reference mode), or
    ``"vectorized"`` (the columnar core of
    :mod:`repro.simulation.vectorized`).
    """
    kwargs = dict(
        copies=copies,
        speed=speed,
        record=record,
        tracer=tracer,
        registry=registry,
        profiler=profiler,
        reconfig_observer=reconfig_observer,
    )
    if engine is None:
        engine = "sparse"
    elif engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    if engine == "vectorized":
        from repro.simulation.vectorized import VectorizedEngine

        return VectorizedEngine(instance, scheme, num_resources, **kwargs).run()
    return BatchedEngine(
        instance, scheme, num_resources, engine=engine, **kwargs
    ).run()
