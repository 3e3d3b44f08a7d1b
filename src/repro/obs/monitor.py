"""Live invariant monitors: the paper's correctness machinery, online.

The offline auditors (`repro.analysis.credits` /
`repro.analysis.invariants`) check the Lemma 3.3–3.17 budgets *after* a
run, from its full-mode ``Trace``; the monitors check them while the
same records stream by.  A :class:`TraceMonitor` is a
:class:`~repro.obs.tracing.Sink`, so it attaches to any engine through
the existing ``tracer=`` keyword — typically teed next to a durable sink::

    monitors = standard_monitors()
    tracer = Tracer(TeeSink(JsonlSink(path), *monitors))
    result = simulate(instance, scheme, m, record="costs", tracer=tracer)
    tracer.close()          # monitors run their end-of-stream audits here
    for monitor in monitors:
        assert not monitor.violations

Monitors reconstruct the Section 3.2/3.4 structure live from the record
stream using the *same* streaming cores the offline auditors run
(:class:`~repro.analysis.epochs.EpochStreamBuilder`,
:class:`~repro.analysis.credits.EpochCreditLedger`,
:func:`~repro.analysis.credits.super_epoch_credit_core`), so online and
offline verdicts agree bit for bit — property-tested in
``tests/test_obs_monitor.py``.  They are strictly observational: the
bit-identity suite asserts attaching any monitor leaves ``CostBreakdown``
unchanged on both engines × speed 1/2 × sparse/dense.

Findings are typed :class:`Violation` records under a raise-or-collect
policy: ``policy="collect"`` (default) accumulates them on
``monitor.violations``; ``policy="raise"`` raises :class:`MonitorError`
at the offending record, which surfaces through the engine's emit path
with the simulation state intact under a debugger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.tracing import Sink, TraceRecord


@dataclass(frozen=True)
class Violation:
    """One invariant finding from a live monitor."""

    monitor: str
    kind: str
    round_index: int | None
    message: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - display convenience
        where = f" @round {self.round_index}" if self.round_index is not None else ""
        return f"[{self.monitor}] {self.kind}{where}: {self.message}"


class MonitorError(RuntimeError):
    """Raised by a ``policy="raise"`` monitor at the offending record."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class TraceMonitor(Sink):
    """Base class: a sink that checks invariants as records stream by.

    Subclasses register per-event handlers by defining ``on_event_<name>``
    methods and may override :meth:`on_run_start` / :meth:`on_run_end` /
    :meth:`finalize`.  The run span's payload (algorithm, resources,
    speed, delta, engine, ...) is captured on ``self.run_info`` before
    any event handler fires.  :meth:`close` runs :meth:`finalize` — the
    end-of-stream audits — exactly once.
    """

    name = "monitor"

    def __init__(self, *, policy: str = "collect") -> None:
        if policy not in ("raise", "collect"):
            raise ValueError("policy must be 'raise' or 'collect'")
        self.policy = policy
        self.violations: list[Violation] = []
        self.run_info: dict[str, Any] = {}
        self.records_seen = 0
        self._finalized = False
        handlers: dict[str, Callable[[TraceRecord], None]] = {}
        for attr in dir(self):
            if attr.startswith("on_event_"):
                handlers[attr[len("on_event_"):]] = getattr(self, attr)
        self._event_handlers = handlers

    # ------------------------------------------------------------- plumbing

    def emit(self, record: TraceRecord) -> None:
        self.records_seen += 1
        kind = record.kind
        if kind == "event":
            handler = self._event_handlers.get(record.name)
            if handler is not None:
                handler(record)
        elif kind == "span_start":
            if record.name == "run":
                self.run_info = dict(record.data)
                self.on_run_start(record)
        elif kind == "span_end":
            if record.name == "run":
                self.on_run_end(record)

    def close(self) -> None:
        if not self._finalized:
            self._finalized = True
            self.finalize()

    def report(
        self,
        kind: str,
        round_index: int | None,
        message: str,
        **data: Any,
    ) -> None:
        """File a finding; raises immediately under ``policy="raise"``."""
        violation = Violation(self.name, kind, round_index, message, data)
        self.violations.append(violation)
        if self.policy == "raise":
            raise MonitorError(violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    # ----------------------------------------------------- subclass hooks

    def on_run_start(self, record: TraceRecord) -> None:
        """Called with the ``run`` span-start record (default: no-op)."""

    def on_run_end(self, record: TraceRecord) -> None:
        """Called with the ``run`` span-end record (default: no-op)."""

    def finalize(self) -> None:
        """End-of-stream audits, run once from :meth:`close`."""

    # -------------------------------------------------------------- helpers

    def _delta(self) -> int:
        """Δ from the run span payload (1 when attached to a bare stream)."""
        return int(self.run_info.get("delta", 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"<{type(self).__name__} {status}, {self.records_seen} records>"


class EpochMonitor(TraceMonitor):
    """Live Section 3.2/3.4 structure reconstruction and consistency.

    Feeds the shared :class:`~repro.analysis.epochs.EpochStreamBuilder`
    from bus events and checks the eligibility protocol online: a color
    must alternate ``eligible``/``ineligible`` (no double transitions),
    and per-color timestamps must be strictly increasing (each
    ``timestamp`` event is only emitted on change).  ``analysis()``
    snapshots the structure at any point; after the run it equals
    :func:`~repro.analysis.epochs.analyze_epochs` on the full trace.
    """

    name = "epoch"

    def __init__(self, *, policy: str = "collect", threshold: int | None = None) -> None:
        super().__init__(policy=policy)
        self._threshold = threshold
        self._builder = None
        self._eligible: set[int] = set()
        self._last_ts: dict[int, int] = {}
        self.super_epochs_closed = 0

    def on_run_start(self, record: TraceRecord) -> None:
        from repro.analysis.epochs import EpochStreamBuilder, super_epoch_threshold

        if self._builder is not None:
            self.report(
                "multiple-runs", record.round_index,
                "monitor instances audit a single run; attach a fresh one",
            )
            return
        threshold = self._threshold
        if threshold is None:
            threshold = super_epoch_threshold(int(self.run_info.get("resources", 2)))
        self._builder = EpochStreamBuilder(threshold=threshold)

    def _require_builder(self):
        if self._builder is None:
            # Bare event stream with no run span: default threshold 1.
            from repro.analysis.epochs import EpochStreamBuilder

            self._builder = EpochStreamBuilder(threshold=self._threshold or 1)
        return self._builder

    def on_event_arrival(self, record: TraceRecord) -> None:
        color = record.data.get("color")
        if color is not None:
            self._require_builder().on_activity(color)

    def on_event_eligible(self, record: TraceRecord) -> None:
        color = record.data["color"]
        self._require_builder().on_activity(color)
        if color in self._eligible:
            self.report(
                "double-eligible", record.round_index,
                f"color {color} marked eligible while already eligible",
                color=color,
            )
        self._eligible.add(color)

    def on_event_ineligible(self, record: TraceRecord) -> None:
        color = record.data["color"]
        if color not in self._eligible:
            self.report(
                "ineligible-without-eligible", record.round_index,
                f"color {color} became ineligible without being eligible",
                color=color,
            )
        self._eligible.discard(color)
        self._require_builder().on_ineligible(color, record.round_index)

    def on_event_timestamp(self, record: TraceRecord) -> None:
        color = record.data["color"]
        ts = record.data.get("timestamp")
        if ts is not None:
            last = self._last_ts.get(color)
            if last is not None and ts <= last:
                self.report(
                    "timestamp-not-increasing", record.round_index,
                    f"color {color} timestamp went {last} -> {ts}",
                    color=color, previous=last, current=ts,
                )
            self._last_ts[color] = ts
        closed = self._require_builder().on_timestamp(color, record.round_index)
        if closed is not None:
            self.super_epochs_closed += 1

    def analysis(self):
        """The :class:`~repro.analysis.epochs.EpochAnalysis` seen so far."""
        return self._require_builder().finish()


class CreditMonitor(TraceMonitor):
    """Live Lemma 3.3 epoch-credit accounting (+ credit-edf balances).

    Streams cache insertions into the shared
    :class:`~repro.analysis.credits.EpochCreditLedger` and audits the
    ``4·numEpochs·Δ`` budget at end of stream — the verdict equals
    :func:`~repro.analysis.credits.audit_epoch_credits` on the full
    trace.  When the run is the runnable ``credit-edf`` scheme, it also
    replays the deposit/spend account from ``wrap``/``cache_in`` events
    and flags any balance that would go negative (the scheme guarantees
    non-negativity by construction, so a violation means the engine and
    the scheme disagree about wraps).
    """

    name = "credit"

    def __init__(self, *, policy: str = "collect", earn_factor: int = 4) -> None:
        super().__init__(policy=policy)
        self.earn_factor = earn_factor
        self._epochs = EpochMonitor(policy="collect")
        self._ledger = None
        self._balances: dict[int, int] = {}
        self._track_balances = False

    def on_run_start(self, record: TraceRecord) -> None:
        from repro.analysis.credits import EpochCreditLedger, scheme_copies

        algorithm = str(self.run_info.get("algorithm", ""))
        self._ledger = EpochCreditLedger(
            delta=self._delta(), copies=scheme_copies(algorithm)
        )
        self._track_balances = algorithm == "credit-edf"
        self._epochs.emit(record)

    def emit(self, record: TraceRecord) -> None:
        super().emit(record)
        if record.kind == "event":
            self._epochs.emit(record)

    def _require_ledger(self):
        if self._ledger is None:
            from repro.analysis.credits import EpochCreditLedger

            self._ledger = EpochCreditLedger(delta=self._delta(), copies=1)
        return self._ledger

    def on_event_wrap(self, record: TraceRecord) -> None:
        if self._track_balances:
            # CreditScheme deposits once per wrapping round (last_wrap
            # change), regardless of how many multiples the batch crossed.
            color = record.data["color"]
            self._balances[color] = (
                self._balances.get(color, 0) + self.earn_factor * self._delta()
            )

    def on_event_cache_in(self, record: TraceRecord) -> None:
        color = record.data["color"]
        ledger = self._require_ledger()
        ledger.on_cache_in(color)
        if self._track_balances:
            balance = self._balances.get(color, 0) - ledger.copies * self._delta()
            self._balances[color] = balance
            if balance < 0:
                self.report(
                    "negative-credit-balance", record.round_index,
                    f"color {color} admitted with insufficient credit "
                    f"(balance {balance} after spend)",
                    color=color, balance=balance,
                )

    def audit(self):
        """The Lemma 3.3 :class:`~repro.analysis.credits.CreditAudit` so far."""
        return self._require_ledger().epoch_credit_audit(
            self._epochs._require_builder().num_epochs
        )

    def finalize(self) -> None:
        audit = self.audit()
        if not audit.within_budget:
            self.report(
                "lemma-3.3-budget", None,
                f"cache insertions charged {audit.charged} exceed the "
                f"4·numEpochs·Δ budget {audit.budget}",
                charged=audit.charged, budget=audit.budget,
            )


class DropContainmentMonitor(TraceMonitor):
    """Live Lemma 3.4 drop containment.

    Per-epoch: a color drops at most ``Δ`` ineligible jobs between two
    ineligibility events (checked at each ``drop``; the counter resets
    when the epoch closes — drops precede the ``ineligible`` that closes
    the epoch in stream order, matching the offline attribution of
    :func:`~repro.analysis.credits.per_epoch_ineligible_drops`).
    Aggregate: total ineligible drops are at most ``numEpochs·Δ`` at end
    of stream, the verdict of
    :func:`~repro.analysis.credits.audit_ineligible_drops`.
    """

    name = "drop-containment"

    def __init__(self, *, policy: str = "collect") -> None:
        super().__init__(policy=policy)
        self._epochs = EpochMonitor(policy="collect")
        self._ledger = None
        self._in_epoch: dict[int, int] = {}

    def on_run_start(self, record: TraceRecord) -> None:
        from repro.analysis.credits import EpochCreditLedger

        self._ledger = EpochCreditLedger(delta=self._delta(), copies=1)
        self._epochs.emit(record)

    def emit(self, record: TraceRecord) -> None:
        super().emit(record)
        if record.kind == "event":
            self._epochs.emit(record)

    def _require_ledger(self):
        if self._ledger is None:
            from repro.analysis.credits import EpochCreditLedger

            self._ledger = EpochCreditLedger(delta=self._delta(), copies=1)
        return self._ledger

    def on_event_drop(self, record: TraceRecord) -> None:
        eligible = record.data["eligible"]
        color = record.data["color"]
        count = int(record.data.get("count", 1))
        self._require_ledger().on_drop(color, count, eligible=eligible)
        if not eligible:
            running = self._in_epoch.get(color, 0) + count
            self._in_epoch[color] = running
            if running > self._delta():
                self.report(
                    "per-epoch-drop-cap", record.round_index,
                    f"color {color} dropped {running} ineligible jobs in one "
                    f"epoch (cap Δ={self._delta()})",
                    color=color, dropped=running,
                )

    def on_event_ineligible(self, record: TraceRecord) -> None:
        # Epoch closes: the per-epoch counter starts over.
        self._in_epoch[record.data["color"]] = 0

    def audit(self):
        """The Lemma 3.4 :class:`~repro.analysis.credits.CreditAudit` so far."""
        return self._require_ledger().ineligible_drop_audit(
            self._epochs._require_builder().num_epochs
        )

    def finalize(self) -> None:
        audit = self.audit()
        if not audit.within_budget:
            self.report(
                "lemma-3.4-budget", None,
                f"ineligible drops {audit.charged} exceed the numEpochs·Δ "
                f"budget {audit.budget}",
                charged=audit.charged, budget=audit.budget,
            )


class RatioMonitor(TraceMonitor):
    """Running competitive-ratio gauge against the offline lower bound.

    Reconstructs the ``Δ·#reconfigs + drop_cost·#drops`` objective from
    ``reconfig``/``drop`` events and divides by
    :func:`~repro.offline.lower_bounds.combined_lower_bound` for the
    instance (computed lazily on run start, when resources and speed are
    known).  The ratio is exposed as :attr:`ratio`, optionally mirrored
    into a metrics-registry gauge ``monitor.competitive_ratio``, and
    checked against ``max_ratio`` at end of stream when one is given.

    As a self-check, the reconstructed total is compared against the
    engine's own ``total_cost`` in the run span-end payload — a mismatch
    means the bus dropped or double-counted a costed event.
    """

    name = "ratio"

    def __init__(
        self,
        instance,
        *,
        policy: str = "collect",
        max_ratio: float | None = None,
        registry=None,
    ) -> None:
        super().__init__(policy=policy)
        self.instance = instance
        self.max_ratio = max_ratio
        self._gauge = (
            registry.gauge("monitor.competitive_ratio")
            if registry is not None
            else None
        )
        self.lower_bound: int | None = None
        self.running_cost = 0
        self._reported_total: int | None = None

    def on_run_start(self, record: TraceRecord) -> None:
        from repro.offline.lower_bounds import combined_lower_bound

        resources = int(self.run_info.get("resources", 1))
        speed = int(self.run_info.get("speed", 1))
        self.lower_bound = combined_lower_bound(
            self.instance, resources, speed=speed
        )

    @property
    def ratio(self) -> float | None:
        """Running cost over the offline lower bound (None before start).

        A zero lower bound (OFF serves the prefix for free — empty or
        all-free workloads) must not understate the ratio by flooring
        the denominator: any online cost against a free optimum is an
        infinite blowup, and zero cost against it ties at 1.0 — the same
        semantics as ``SweepResult.relative_to``.
        """
        if self.lower_bound is None:
            return None
        if self.lower_bound == 0:
            return float("inf") if self.running_cost > 0 else 1.0
        return self.running_cost / self.lower_bound

    def _bump(self, amount: int) -> None:
        self.running_cost += amount
        if self._gauge is not None:
            ratio = self.ratio
            if ratio is not None:
                self._gauge.set(ratio)

    def on_event_reconfig(self, record: TraceRecord) -> None:
        self._bump(self._delta() * int(record.data.get("resources", 1)))

    def on_event_drop(self, record: TraceRecord) -> None:
        self._bump(
            self.instance.spec.cost.drop_cost * int(record.data.get("count", 1))
        )

    def on_run_end(self, record: TraceRecord) -> None:
        self._reported_total = record.data.get("total_cost")

    def finalize(self) -> None:
        if (
            self._reported_total is not None
            and self._reported_total != self.running_cost
        ):
            self.report(
                "cost-reconstruction-mismatch", None,
                f"bus events reconstruct cost {self.running_cost} but the "
                f"engine reported {self._reported_total}",
                reconstructed=self.running_cost, reported=self._reported_total,
            )
        ratio = self.ratio
        if self.max_ratio is not None and ratio is not None and ratio > self.max_ratio:
            self.report(
                "competitive-ratio", None,
                f"cost {self.running_cost} is x{ratio:.2f} the offline lower "
                f"bound {self.lower_bound} (cap x{self.max_ratio:.2f})",
                ratio=ratio, lower_bound=self.lower_bound,
            )


class SuperEpochCreditMonitor(TraceMonitor):
    """Live §3.4 credit assignment against a known OFF schedule.

    Streams the online side (timestamp updates, cache transitions, epoch
    structure) off the bus and, at end of stream, runs the shared
    :func:`~repro.analysis.credits.super_epoch_credit_core` against the
    OFF schedule's reconfigurations and drops — the same core
    :func:`~repro.analysis.credits.audit_super_epoch_credits` runs on a
    full trace, so the audits agree bit for bit.  Violations: Lemma 3.13
    (an uncovered *i*-active color) and Lemma 3.17 (total credit below
    ``Δ`` per nonspecial epoch).
    """

    name = "super-epoch-credit"

    def __init__(
        self, instance, off_schedule, *, policy: str = "collect"
    ) -> None:
        super().__init__(policy=policy)
        self.instance = instance
        self.off_schedule = off_schedule
        self._epochs = EpochMonitor(policy="collect")
        self._updates_by_color: dict[int, list[int]] = {}
        self._cache_timeline: dict[int, list[tuple[int, int, bool]]] = {}
        self._audit = None

    def on_run_start(self, record: TraceRecord) -> None:
        self._epochs.emit(record)

    def emit(self, record: TraceRecord) -> None:
        super().emit(record)
        if record.kind == "event":
            self._epochs.emit(record)

    def on_event_timestamp(self, record: TraceRecord) -> None:
        self._updates_by_color.setdefault(record.data["color"], []).append(
            record.round_index
        )

    def on_event_cache_in(self, record: TraceRecord) -> None:
        self._cache_timeline.setdefault(record.data["color"], []).append(
            (record.round_index, int(record.data.get("mini", 0)), True)
        )

    def on_event_cache_out(self, record: TraceRecord) -> None:
        self._cache_timeline.setdefault(record.data["color"], []).append(
            (record.round_index, int(record.data.get("mini", 0)), False)
        )

    def audit(self):
        """The :class:`~repro.analysis.credits.SuperEpochAudit` (cached)."""
        from repro.analysis.credits import (
            SuperEpochAudit,
            off_side_events,
            super_epoch_credit_core,
        )

        if self._audit is not None:
            return self._audit
        delta = self._delta()
        analysis = self._epochs.analysis()
        off_reconfigs, off_drops = off_side_events(self.off_schedule, self.instance)
        credit, uncovered = super_epoch_credit_core(
            delta=delta,
            drop_unit=6.0 * self.instance.spec.cost.drop_cost,
            analysis=analysis,
            updates_by_color=self._updates_by_color,
            cache_timeline=self._cache_timeline,
            off_reconfigs=off_reconfigs,
            off_drops=off_drops,
        )
        off_cost = sum(
            1 for _ in self.off_schedule.reconfigurations
        ) * delta + sum(len(v) for v in off_drops.values())
        nonspecial = analysis.num_epochs - len(analysis.special_epochs())
        self._audit = SuperEpochAudit(
            total_credit=sum(credit.values()),
            credit_by_event=credit,
            uncovered=uncovered,
            off_cost=off_cost,
            num_nonspecial_epochs=nonspecial,
        )
        return self._audit

    def finalize(self) -> None:
        audit = self.audit()
        if not audit.lemma_3_13_holds:
            self.report(
                "lemma-3.13-uncovered", None,
                f"{len(audit.uncovered)} i-active color(s) neither cached "
                f"throughout their super-epoch nor credited 6Δ",
                uncovered=list(audit.uncovered),
            )
        if not audit.lemma_3_17_holds(self._delta()):
            self.report(
                "lemma-3.17-deficit", None,
                f"total credit {audit.total_credit} below Δ per nonspecial "
                f"epoch ({audit.num_nonspecial_epochs} epochs)",
                total_credit=audit.total_credit,
                nonspecial=audit.num_nonspecial_epochs,
            )


def standard_monitors(
    instance=None, *, policy: str = "collect", registry=None
) -> list[TraceMonitor]:
    """The default monitor set for one run.

    Epoch structure, Lemma 3.3 credits, and Lemma 3.4 drop containment
    always; the competitive-ratio gauge when ``instance`` is given (the
    lower bound needs the instance).  Tee them next to any other sink::

        monitors = standard_monitors(instance)
        tracer = Tracer(TeeSink(MemorySink(), *monitors))
    """
    monitors: list[TraceMonitor] = [
        EpochMonitor(policy=policy),
        CreditMonitor(policy=policy),
        DropContainmentMonitor(policy=policy),
    ]
    if instance is not None:
        monitors.append(
            RatioMonitor(instance, policy=policy, registry=registry)
        )
    return monitors
