"""Credit-scheme audits (the amortized accounting of Lemmas 3.3 and 3.4).

The paper pays for ΔLRU-EDF's reconfigurations with ``4Δ`` of credit per
epoch (``2Δ`` "first-time" + ``2Δ`` "end-of-epoch") and for ineligible
drops with ``Δ`` per epoch.  These auditors walk a trace and replay the
accounting event by event, reporting per-epoch balances — a much sharper
check than the aggregate inequalities, and the tool that caught the
paper's bookkeeping nuances during development.

:class:`CreditScheme` turns the same accounting into a runnable
reconfiguration scheme — credit earned on wrapping rounds, spent on
admissions.  Its credit vector is decision state the engine cannot see,
so it is not stationary and the engine simulates its every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.epochs import (
    EpochAnalysis,
    analyze_epochs,
    super_epoch_threshold,
)
from repro.simulation.engine import (
    BatchedEngine,
    ReconfigurationScheme,
    RunResult,
)


def scheme_copies(algorithm: str) -> int:
    """Logical copies per cache insertion for an algorithm by name.

    The paper's ΔLRU/EDF/ΔLRU-EDF keep two locations per cached color
    (Lemma 3.3 charges ``2Δ`` per insertion); every other scheme is
    single-copy.  Shared by the offline auditors and the live monitors.
    """
    return 2 if algorithm in ("dLRU", "EDF", "dLRU-EDF") else 1


@dataclass
class CreditAudit:
    """Outcome of replaying a credit scheme over a trace."""

    scheme: str
    charged: int
    budget: int
    per_color_charges: dict[int, int] = field(default_factory=dict)

    @property
    def within_budget(self) -> bool:
        return self.charged <= self.budget

    @property
    def utilization(self) -> float:
        """Fraction of the credit budget actually consumed."""
        return self.charged / self.budget if self.budget else 0.0


class EpochCreditLedger:
    """Streaming Lemma 3.3 / 3.4 accounting.

    The shared core behind :func:`audit_epoch_credits` and
    :func:`audit_ineligible_drops`: feed it cache insertions and drops in
    stream order (from a finished ``Trace`` or live from the trace bus)
    and ask for the audits at any point.  Because the offline auditors
    and the live monitors drive the *same* ledger, their verdicts agree
    bit for bit.
    """

    def __init__(self, *, delta: int, copies: int) -> None:
        self.delta = delta
        self.copies = copies
        self.charged = 0
        self.per_color: dict[int, int] = {}
        self.ineligible_dropped = 0
        self.ineligible_per_color: dict[int, int] = {}

    def on_cache_in(self, color: int) -> None:
        cost = self.copies * self.delta
        self.charged += cost
        self.per_color[color] = self.per_color.get(color, 0) + cost

    def on_drop(self, color: int, count: int, *, eligible: bool) -> None:
        if eligible:
            return
        self.ineligible_dropped += count
        self.ineligible_per_color[color] = (
            self.ineligible_per_color.get(color, 0) + count
        )

    def epoch_credit_audit(self, num_epochs: int) -> CreditAudit:
        """The Lemma 3.3 audit given the current epoch count."""
        return CreditAudit(
            "lemma-3.3-epoch-credits",
            self.charged,
            4 * num_epochs * self.delta,
            dict(self.per_color),
        )

    def ineligible_drop_audit(self, num_epochs: int) -> CreditAudit:
        """The Lemma 3.4 audit given the current epoch count."""
        return CreditAudit(
            "lemma-3.4-ineligible-drops",
            self.ineligible_dropped,
            num_epochs * self.delta,
            dict(self.ineligible_per_color),
        )


def audit_epoch_credits(
    result: RunResult, *, analysis: EpochAnalysis | None = None
) -> CreditAudit:
    """Replay the Lemma 3.3 scheme: ``4Δ`` credit per epoch pays every
    (logical) cache insertion at ``copies * Δ`` each.

    The aggregate form: with ``numEpochs`` epochs and two locations per
    insertion, total insertions must cost at most ``4 * numEpochs * Δ``.
    Per-color charges are reported so tests can also check the paper's
    finer claim that a color's *first* insertion per epoch is covered by
    its own epoch credit.
    """
    delta = result.instance.reconfig_cost
    if analysis is None:
        analysis = analyze_epochs(
            result.trace, threshold=super_epoch_threshold(result.num_resources)
        )
    ledger = EpochCreditLedger(
        delta=delta, copies=scheme_copies(result.algorithm)
    )
    for record in result.trace:
        if record.name == "cache_in":
            ledger.on_cache_in(record.data["color"])
    return ledger.epoch_credit_audit(analysis.num_epochs)


def audit_ineligible_drops(
    result: RunResult, *, analysis: EpochAnalysis | None = None
) -> CreditAudit:
    """Replay the Lemma 3.4 scheme: ``Δ`` credit per epoch pays the drops
    of jobs that arrived while the color was still ineligible.

    Additionally verifies the paper's per-epoch claim: within one epoch a
    color drops at most ``Δ`` ineligible jobs (the counter wraps at
    ``Δ``), reported through ``per_color_charges``.
    """
    delta = result.instance.reconfig_cost
    if analysis is None:
        analysis = analyze_epochs(
            result.trace, threshold=super_epoch_threshold(result.num_resources)
        )
    ledger = EpochCreditLedger(delta=delta, copies=1)
    for record in result.trace:
        if record.name == "drop":
            data = record.data
            ledger.on_drop(data["color"], data["count"], eligible=data["eligible"])
    return ledger.ineligible_drop_audit(analysis.num_epochs)


@dataclass
class SuperEpochAudit:
    """Outcome of replaying the Section 3.4 credit assignment.

    ``credit_by_event`` maps (round, color) of a timestamp update event
    to the credit assigned by rules (1)-(3); ``uncovered`` lists the
    *i*-active colors of complete super-epochs that were neither cached
    throughout their super-epoch nor credited (Lemma 3.13 says this list
    must be empty).
    """

    total_credit: float
    credit_by_event: dict[tuple[int, int], float]
    uncovered: list[tuple[int, int]]  # (super-epoch index, color)
    off_cost: int
    num_nonspecial_epochs: int

    @property
    def lemma_3_13_holds(self) -> bool:
        return not self.uncovered

    def lemma_3_12_bound(self, constant: float = 20.0) -> bool:
        """Total credit is O(Cost_OFF): check with an explicit constant."""
        return self.total_credit <= constant * max(self.off_cost, 1)

    def lemma_3_17_holds(self, delta: int) -> bool:
        """Total credit >= Δ * number of nonspecial epochs (Lemma 3.17)."""
        return self.total_credit >= delta * self.num_nonspecial_epochs


def off_side_events(
    off_schedule, instance
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Extract the OFF-side inputs of the §3.4 credit rules.

    Returns ``(off_reconfigs, off_drops)``: per-color lists of the rounds
    OFF reconfigured *from or to* the color, and per-color lists of the
    arrival rounds of jobs OFF dropped (never executed).  Shared by the
    offline auditor and the live super-epoch credit monitor.
    """
    off_reconfigs: dict[int, list[int]] = {}
    current_color: dict[int, int] = {}
    for event in off_schedule.reconfigurations:
        old = current_color.get(event.resource)
        if old is not None:
            off_reconfigs.setdefault(old, []).append(event.round_index)
        off_reconfigs.setdefault(event.new_color, []).append(event.round_index)
        current_color[event.resource] = event.new_color
    executed = off_schedule.executed_jids
    off_drops: dict[int, list[int]] = {}
    for job in instance.sequence:
        if job.jid not in executed:
            off_drops.setdefault(job.color, []).append(job.arrival)
    return off_reconfigs, off_drops


def super_epoch_credit_core(
    *,
    delta: int,
    drop_unit: float,
    analysis: EpochAnalysis,
    updates_by_color: dict[int, list[int]],
    cache_timeline: dict[int, list[tuple[int, int, bool]]],
    off_reconfigs: dict[int, list[int]],
    off_drops: dict[int, list[int]],
) -> tuple[dict[tuple[int, int], float], list[tuple[int, int]]]:
    """The §3.4 credit rules over plain event structures.

    ``updates_by_color`` holds each color's timestamp-update rounds in
    stream order; ``cache_timeline`` holds each color's
    ``(round, mini, entering)`` cache transitions (entering=True for
    cache-in).  Returns ``(credit_by_event, uncovered)``.  Both the
    offline :func:`audit_super_epoch_credits` and the live monitor
    extract these structures from their respective streams and call this
    one core, so their verdicts agree bit for bit.
    """
    credit: dict[tuple[int, int], float] = {}

    def give(round_index: int, color: int, amount: float) -> None:
        key = (round_index, color)
        credit[key] = credit.get(key, 0.0) + amount

    # Rule 2: each OFF reconfiguration credits the next two update events.
    for color, rounds in off_reconfigs.items():
        events = updates_by_color.get(color, [])
        for reconfig_round in rounds:
            following = [r for r in events if r >= reconfig_round]
            for update_round in following[:2]:
                give(update_round, color, 6.0 * delta)

    # Rule 3: each OFF-dropped job credits the first update event after
    # its arrival (the wrapping event it feeds precedes that update).
    for color, arrivals in off_drops.items():
        events = updates_by_color.get(color, [])
        for arrival in arrivals:
            following = [r for r in events if r > arrival]
            if following:
                give(following[0], color, drop_unit)

    # Rule 1 + Lemma 3.13 check per complete super-epoch.
    uncovered: list[tuple[int, int]] = []
    for super_epoch in analysis.super_epochs:
        if not super_epoch.complete:
            continue
        start, end = super_epoch.start, super_epoch.end
        for color in sorted(super_epoch.active_colors):
            events = [
                r
                for r in updates_by_color.get(color, [])
                if start <= r <= (end or start)
            ]
            if not events:
                continue
            first = events[0]
            # Rule 1: OFF touched ℓ inside the super-epoch.
            touched = any(
                start <= r <= (end or start)
                for r in off_reconfigs.get(color, [])
            )
            if touched:
                give(first, color, 6.0 * delta)
            # Cached throughout [start, end]? Replay the color's cache
            # in/out events: cached at `start` and never evicted inside.
            # The sort keeps cache-out before cache-in at an equal
            # (round, mini) — False orders before True.
            timeline = sorted(cache_timeline.get(color, []))
            cached_at_start = False
            evicted_inside = False
            for round_index, _, entering in timeline:
                if round_index <= start:
                    cached_at_start = entering
                elif round_index <= (end or start) and not entering:
                    evicted_inside = True
            cached_throughout = cached_at_start and not evicted_inside
            has_credit = credit.get((first, color), 0.0) >= 6.0 * delta
            if not cached_throughout and not has_credit:
                uncovered.append((super_epoch.index, color))

    return credit, uncovered


def audit_super_epoch_credits(
    result: RunResult,
    off_schedule,
    off_resources: int,
) -> SuperEpochAudit:
    """Replay the §3.4 credit assignment against an actual OFF schedule.

    Credit rules (with ``Δ`` the reconfiguration cost):

    1. if color ℓ is *i*-active and OFF reconfigures from or to ℓ during
       super-epoch *i*, give ``6Δ`` to ℓ's first timestamp update event
       in super-epoch *i*;
    2. for each OFF reconfiguration from/to ℓ, give ``6Δ`` to each of the
       next two timestamp update events of ℓ;
    3. for each color-ℓ job dropped by OFF, give 6 units to the first
       timestamp update event of ℓ after the counter wrapping event the
       job is attributed to.

    Lemma 3.13 is then checked directly: every *i*-active color of a
    complete super-epoch is either cached by the online algorithm
    throughout super-epoch *i* or its first update event in *i* carries
    at least ``6Δ`` of credit.
    """
    delta = result.instance.reconfig_cost
    analysis = analyze_epochs(
        result.trace, threshold=super_epoch_threshold(result.num_resources)
    )

    off_reconfigs, off_drops = off_side_events(off_schedule, result.instance)

    updates_by_color: dict[int, list[int]] = {}
    cache_timeline: dict[int, list[tuple[int, int, bool]]] = {}
    for record in result.trace:
        name, data = record.name, record.data
        if name == "timestamp":
            updates_by_color.setdefault(data["color"], []).append(
                record.round_index
            )
        elif name == "cache_in" or name == "cache_out":
            cache_timeline.setdefault(data["color"], []).append(
                (record.round_index, data["mini"], name == "cache_in")
            )

    credit, uncovered = super_epoch_credit_core(
        delta=delta,
        drop_unit=6.0 * result.instance.spec.cost.drop_cost,
        analysis=analysis,
        updates_by_color=updates_by_color,
        cache_timeline=cache_timeline,
        off_reconfigs=off_reconfigs,
        off_drops=off_drops,
    )

    off_cost = sum(
        1 for _ in off_schedule.reconfigurations
    ) * delta + sum(len(v) for v in off_drops.values())
    nonspecial = analysis.num_epochs - len(analysis.special_epochs())
    return SuperEpochAudit(
        total_credit=sum(credit.values()),
        credit_by_event=credit,
        uncovered=uncovered,
        off_cost=off_cost,
        num_nonspecial_epochs=nonspecial,
    )


def per_epoch_ineligible_drops(result: RunResult) -> dict[tuple[int, int], int]:
    """Ineligible drops attributed to each (color, epoch index).

    Lemma 3.4's inner claim: every value is at most ``Δ``.
    """
    analysis = analyze_epochs(
        result.trace, threshold=super_epoch_threshold(result.num_resources)
    )
    attributed: dict[tuple[int, int], int] = {}
    for record in result.trace:
        if record.name != "drop" or record.data["eligible"]:
            continue
        color, count = record.data["color"], record.data["count"]
        for epoch in analysis.epochs_of(color):
            end = epoch.end if epoch.end is not None else float("inf")
            if epoch.start < record.round_index <= end:
                key = (color, epoch.index)
                break
        else:
            # Drops in round 0 or exactly at an epoch boundary belong to
            # the epoch that starts there.
            key = (color, 0)
        attributed[key] = attributed.get(key, 0) + count
    return attributed


class CreditScheme(ReconfigurationScheme):
    """EDF admission gated by the Lemma 3.3 credit account, runnable.

    The auditors above replay the accounting over a finished trace; this
    scheme *enforces* it online: every counter wrapping round deposits
    ``earn_factor * Δ`` credits on its color, and admitting a color
    spends ``copies * Δ`` (one reconfiguration per occupied resource).
    A color is admitted only when its balance covers the spend, so the
    scheme's reconfiguration cost never exceeds the credit earned — the
    Lemma 3.3 inequality holds by construction rather than by analysis.

    The credit vector is decision state the engine cannot see, so the
    scheme is not
    :attr:`~repro.simulation.engine.ReconfigurationScheme.stationary`
    and the engine simulates every round of it; :meth:`state_dict`
    carries the vector across stream checkpoints.
    """

    name = "credit-edf"

    def __init__(self, earn_factor: int = 4) -> None:
        if earn_factor <= 0:
            raise ValueError("earn_factor must be positive")
        self.earn_factor = earn_factor
        self._credit: dict[int, int] = {}
        self._last_wrap_seen: dict[int, int] = {}

    def reset(self, seed: int | None = None) -> None:
        self._credit = {}
        self._last_wrap_seen = {}

    def setup(self, engine: BatchedEngine) -> None:
        self._credit = {}
        self._last_wrap_seen = {}

    def state_dict(self) -> dict:
        return {
            "credit": {str(c): v for c, v in self._credit.items()},
            "last_wrap_seen": {
                str(c): v for c, v in self._last_wrap_seen.items()
            },
        }

    def load_state(self, state: dict) -> None:
        self._credit = {int(c): v for c, v in state["credit"].items()}
        self._last_wrap_seen = {
            int(c): v for c, v in state["last_wrap_seen"].items()
        }

    def credit_balance(self, color: int) -> int:
        """Current unspent credit of ``color`` (auditing hook)."""
        return self._credit.get(color, 0)

    def reconfigure(self, engine: BatchedEngine) -> None:
        delta = engine.delta
        deposit = self.earn_factor * delta
        for color in engine.eligible_colors():
            last_wrap = engine.state(color).last_wrap
            if last_wrap is not None and self._last_wrap_seen.get(color) != last_wrap:
                self._last_wrap_seen[color] = last_wrap
                self._credit[color] = self._credit.get(color, 0) + deposit
        capacity = engine.cache.capacity
        spend = engine.copies * delta
        ranking = engine.rank_eligible()
        for color in ranking[:capacity]:
            if engine.state(color).idle or color in engine.cache:
                continue
            if self._credit.get(color, 0) < spend:
                continue
            if engine.cache.is_full():
                victim = self._lowest_ranked_cached(engine, ranking)
                engine.cache_evict(victim)
            engine.cache_insert(color)
            self._credit[color] -= spend

    @staticmethod
    def _lowest_ranked_cached(engine: BatchedEngine, ranking: list[int]) -> int:
        cached = engine.cache.cached_colors()
        for color in reversed(ranking):
            if color in cached:
                return color
        raise RuntimeError("cache full but no cached color found in the ranking")
