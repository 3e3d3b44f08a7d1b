"""Exact offline optimum by a banded layered forward DP.

For small instances this computes the true ``Cost_OFF`` the paper's
ratios are defined against.  The search space is kept finite by three
facts about the problem:

* **Configuration timing is free**: reconfiguring costs ``Δ`` whenever it
  happens, and the reconfiguration phase precedes the execution phase of
  the same round, so an optimal schedule exists that only ever configures
  colors with currently pending jobs (pre-configuring for the future
  cannot help).
* **EDF within a color is optimal**: once the round's configuration is
  fixed, executing each slot's earliest-deadline pending job of that
  color dominates any other choice.
* **State is summarizable**: at the start of round ``k`` the future
  depends only on the cache multiset and the pending multiset
  ``{(color, deadline) -> count}``.

:func:`optimal_offline` is one solver in two steps:

1. a **warm-started incumbent** seeds the band: the ΔLRU-EDF replay
   through the fast engine
   (:func:`~repro.offline.lower_bounds.warm_start_incumbent`), tightened
   by a width-2 beam walk of the DP itself whose terminal cost is a
   certified feasible schedule cost;
2. the **sweep** visits the state space one round-layer at a time
   (topological, so every state's minimal prefix cost ``g`` is final
   when expanded — no re-expansion thrash), keeping only states whose
   ``g +`` admissible bound fits under the incumbent and pruning
   layer-mates that are *dominated* — same cache, no cheaper prefix,
   and pending at least as large and urgent colorwise (a coupling
   argument makes their cost-to-go no smaller).  The admissible bound
   is the max of the per-color suffix floors, the
   :class:`~repro.offline.lower_bounds.ColorPhaseBound` phase
   decomposition, and the fractional
   :class:`~repro.offline.lower_bounds.IntervalPackingRelaxation`,
   evaluated only where its ceiling could change a cut.

The optimal path always survives the band (its ``g`` plus any admissible
bound never exceeds the optimum, which never exceeds a certified
incumbent), so the terminal minimum is exact and its back-pointer chain
replays into a feasible :class:`~repro.core.schedule.Schedule` checked
by the shared verifier.

Two oracles check it in the tests: :func:`optimal_offline_exhaustive`,
the original recursive exhaustive search, which shares the solver's
transition helpers, and
:func:`repro.offline.bruteforce.bruteforce_optimal_cost`, which shares
none of them.  A ``max_states`` guard protects against accidental use on large
instances; when it fires, :class:`SearchSpaceExceeded` carries the nodes
expanded, the best incumbent found, and the dominant bound source, so
truncated solves are diagnosable instead of opaque.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from time import perf_counter

from repro.core.cost import CostBreakdown
from repro.core.instance import Instance
from repro.core.job import BLACK, Job
from repro.core.schedule import Schedule
from repro.core.validation import verify_schedule
from repro.offline.lower_bounds import (
    ColorPhaseBound,
    IntervalPackingRelaxation,
    pending_drop_floor,
    pending_reconfig_floor,
    warm_start_incumbent,
)

#: pending is a sorted tuple of ((color, deadline), count).
PendingKey = tuple[tuple[tuple[int, int], int], ...]
CacheKey = tuple[int, ...]

_HUGE = 1 << 60


class SearchSpaceExceeded(RuntimeError):
    """Raised when the search outgrows ``max_states``.

    Carries enough context to diagnose a truncated solve:
    ``nodes_expanded`` (decision nodes expanded before the guard fired),
    ``best_incumbent`` (cost of the best feasible schedule known so far,
    ``None`` if none), and ``bound_source`` (the bound layer that did the
    most pruning up to the truncation, ``"none"`` before any prune).
    """

    def __init__(
        self,
        message: str,
        *,
        nodes_expanded: int | None = None,
        best_incumbent: int | None = None,
        bound_source: str = "none",
    ) -> None:
        super().__init__(message)
        self.nodes_expanded = nodes_expanded
        self.best_incumbent = best_incumbent
        self.bound_source = bound_source


@dataclass(frozen=True)
class OptimalResult:
    """Exact optimum plus a witness schedule.

    ``candidates_pruned`` counts states and edges cut without expansion;
    ``bound_source_histogram`` attributes those cuts to the filter that
    made them (``relaxation``, ``phase``, ``drop_floor``,
    ``reconfig_floor``, ``dominance``, ``terminal``) — the effectiveness
    metrics exported to the ``offline.*`` telemetry instruments and
    surfaced by ``repro stats``.
    """

    cost: int
    schedule: Schedule
    breakdown: CostBreakdown
    states_explored: int
    candidates_pruned: int = 0
    bound_source_histogram: dict[str, int] = field(default_factory=dict)
    method: str = "layered"
    warm_start_cost: int | None = None

    @property
    def nodes_expanded(self) -> int:
        """Decision nodes expanded (alias of ``states_explored``)."""
        return self.states_explored

    @property
    def num_reconfigs(self) -> int:
        return self.breakdown.num_reconfigs

    @property
    def num_drops(self) -> int:
        return self.breakdown.num_drops


def _arrivals_by_round(instance: Instance) -> dict[int, dict[tuple[int, int], int]]:
    grouped: dict[int, dict[tuple[int, int], int]] = {}
    for job in instance.sequence:
        per_round = grouped.setdefault(job.arrival, {})
        key = (job.color, job.deadline)
        per_round[key] = per_round.get(key, 0) + 1
    return grouped


def _candidate_caches(
    current: CacheKey, pending_colors: tuple[int, ...], m: int
) -> list[CacheKey]:
    """All useful *physical* slot-color multisets reachable from ``current``.

    The cache is always a full multiset of ``m`` slot colors, with
    :data:`~repro.core.job.BLACK` marking never-reconfigured slots.  A
    transition may only recolor slots to non-black colors, so the BLACK
    count never increases.  New colors are only ever drawn from the
    pending colors (recoloring to a color with no pending jobs is
    dominated); keeping a current color is free.
    """
    old_black = sum(1 for c in current if c == BLACK)
    pool = tuple(sorted((set(pending_colors) | set(current)) - {BLACK}))
    seen: set[CacheKey] = set()
    out: list[CacheKey] = []
    for non_black_size in range(max(0, m - old_black), m + 1):
        pad = (BLACK,) * (m - non_black_size)
        for combo in combinations_with_replacement(pool, non_black_size):
            key = tuple(sorted(pad + combo))
            if key not in seen:
                seen.add(key)
                out.append(key)
    if current not in seen:
        out.append(current)
    return out


def _reconfig_count(old: CacheKey, new: CacheKey) -> int:
    """Slots recolored turning full multiset ``old`` into ``new``.

    Matching identical colors maximally, the recolored slots are exactly
    the non-black assignments not covered: ``Σ_c max(0, new(c) - old(c))``
    over non-black colors.
    """
    unmatched: dict[int, int] = {}
    for c in old:
        unmatched[c] = unmatched.get(c, 0) + 1
    recolored = 0
    for c in new:
        if c == BLACK:
            continue
        left = unmatched.get(c, 0)
        if left:
            unmatched[c] = left - 1
        else:
            recolored += 1
    return recolored


def _drop_and_arrive(
    k: int,
    pending: PendingKey,
    arrivals: dict[int, dict[tuple[int, int], int]],
) -> tuple[int, PendingKey]:
    """Apply the drop and arrival phases; return (dropped count, pending)."""
    items = dict(pending)
    dropped = 0
    for (color, deadline), count in list(items.items()):
        if deadline <= k:
            dropped += count
            del items[(color, deadline)]
    for key, count in arrivals.get(k, {}).items():
        items[key] = items.get(key, 0) + count
    return dropped, tuple(sorted(items.items()))


def _execute_abstract(cache: CacheKey, pending: PendingKey) -> PendingKey:
    """Each slot executes its color's earliest-deadline pending job.

    ``pending`` must be sorted by ``(color, deadline)``, as every
    :data:`PendingKey` is: one pass then meets each color's entries most
    urgent first, and each entry gives up ``min(width left, count)`` jobs
    to the slots of its color.  The result stays sorted.
    """
    width: dict[int, int] = {}
    for color in cache:
        if color != BLACK:
            width[color] = width.get(color, 0) + 1
    out = []
    for entry in pending:
        (color, _), count = entry
        free = width.get(color)
        if free:
            run = min(free, count)
            width[color] = free - run
            if run == count:
                continue
            entry = (entry[0], count - run)
        out.append(entry)
    return tuple(out)


def _future_arrivals_by_color(
    arrivals: dict[int, dict[tuple[int, int], int]],
) -> dict[int, tuple[list[int], list[int]]]:
    """Per color: sorted arrival rounds and suffix job totals.

    ``suffix[i]`` is the number of the color's jobs arriving at or after
    ``rounds[i]`` — the lookup behind the future-aware reconfiguration
    floor of :meth:`_BoundOracle.suffix_floor`.
    """
    per_color: dict[int, dict[int, int]] = {}
    for k, batch in arrivals.items():
        for (color, _), count in batch.items():
            rounds = per_color.setdefault(color, {})
            rounds[k] = rounds.get(k, 0) + count
    out: dict[int, tuple[list[int], list[int]]] = {}
    for color, by_round in per_color.items():
        rounds = sorted(by_round)
        suffix = [0] * len(rounds)
        acc = 0
        for i in range(len(rounds) - 1, -1, -1):
            acc += by_round[rounds[i]]
            suffix[i] = acc
        out[color] = (rounds, suffix)
    return out


class _BoundOracle:
    """Layered admissible bounds on the cost-to-go, with attribution.

    Three independently admissible layers:

    * the **suffix floors** (:meth:`suffix_floor`) — per-color
      reconfigure-or-drop over pending *plus future* jobs, max'd with
      the pending capacity drop floor;
    * the **color-phase floor**
      (:class:`~repro.offline.lower_bounds.ColorPhaseBound`) — a
      reconfigure-or-drop charge per disjoint time interval, so it grows
      with the horizon;
    * the **interval-packing relaxation** (:attr:`packing`) — the
      fractional capacity LP over pending and future jobs jointly, the
      layer that prices overload.

    :meth:`cheap_bound` maxes the first two; the solver adds the third
    on a candidate row only where
    :meth:`~repro.offline.lower_bounds.IntervalPackingRelaxation.ceiling`
    says it could change the row's cut.  The per-color future job counts
    of a start round are one table per solve (:meth:`future_counts`).
    """

    __slots__ = (
        "m",
        "delta",
        "drop_cost",
        "future_by_color",
        "future_tables",
        "packing",
        "phases",
    )

    def __init__(
        self,
        arrivals: dict[int, dict[tuple[int, int], int]],
        m: int,
        delta: int,
        drop_cost: int,
        horizon: int,
    ) -> None:
        self.m = m
        self.delta = delta
        self.drop_cost = drop_cost
        self.future_by_color = _future_arrivals_by_color(arrivals)
        self.future_tables: dict[int, dict[int, int]] = {}
        self.packing = IntervalPackingRelaxation(arrivals, m, drop_cost)
        self.phases = ColorPhaseBound(arrivals, m, horizon, delta, drop_cost)

    def _future_count(self, color: int, start_round: int) -> int:
        entry = self.future_by_color.get(color)
        if entry is None:
            return 0
        rounds, suffix = entry
        i = bisect_right(rounds, start_round - 1)
        return suffix[i] if i < len(rounds) else 0

    def future_counts(self, start_round: int) -> dict[int, int]:
        """``{color: jobs arriving at or after start_round}``, nonzero only.

        Built once per start round; callers must not mutate it.
        """
        table = self.future_tables.get(start_round)
        if table is None:
            table = {}
            for color in self.future_by_color:
                future = self._future_count(color, start_round)
                if future:
                    table[color] = future
            self.future_tables[start_round] = table
        return table

    def suffix_floor(
        self, start_round: int, cache: CacheKey, pending: PendingKey
    ) -> tuple[int, str]:
        """Per-color and capacity floors on the suffix, with attribution."""
        per_color = dict(self.future_counts(start_round))
        for (color, _), count in pending:
            per_color[color] = per_color.get(color, 0) + count
        # The cache tuple holds m slots, so membership tests need no set.
        floor = pending_reconfig_floor(
            per_color, cache, self.delta, self.drop_cost
        )
        source = "reconfig_floor"
        if pending:
            drops = pending_drop_floor(
                pending, start_round, self.m, self.drop_cost
            )
            if drops > floor:
                floor, source = drops, "drop_floor"
        return floor, source

    def cheap_bound(
        self, start_round: int, cache: CacheKey, pending: PendingKey
    ) -> tuple[int, str]:
        """Max of the suffix and phase floors and the name of the winner.

        The packing relaxation is not included.  The solver's sweep
        evaluates it on the candidate rows where its ceiling could change
        the cut; the beam walk's ordering and the inactive-stretch jump
        use these layers alone.
        """
        best, source = self.suffix_floor(start_round, cache, pending)
        phased = self.phases.floor(start_round, cache, pending)
        if phased > best:
            best, source = phased, "phase"
        return best, source


def _deadline_profile(pending: PendingKey) -> dict[int, tuple[int, ...]]:
    """Per-color ascending deadline list of a pending multiset."""
    per_color: dict[int, list[int]] = {}
    for (color, deadline), count in pending:
        per_color.setdefault(color, []).extend((deadline,) * count)
    return {color: tuple(dls) for color, dls in per_color.items()}


def _at_least_as_hard(
    easy: dict[int, tuple[int, ...]], hard: dict[int, tuple[int, ...]]
) -> bool:
    """Whether ``hard`` colorwise covers ``easy`` with tighter deadlines.

    For every color, ``hard`` must hold at least as many jobs and its
    ``i``-th most urgent deadline must be at most ``easy``'s — i.e. for
    every ``d``, ``hard`` has at least as many jobs due by ``d``.  Then a
    coupling argument (run any schedule for ``hard``, execute the
    matched ``easy`` job whenever it executes a matched job, drop the
    match of every drop) shows the optimal cost-to-go from ``easy`` is
    no larger, so with no cheaper prefix the harder state is dominated.
    """
    for color, deadlines in easy.items():
        other = hard.get(color)
        if other is None or len(other) < len(deadlines):
            return False
        for d_hard, d_easy in zip(other, deadlines):
            if d_hard > d_easy:
                return False
    return True


class _LayeredSolver:
    """Banded layered forward DP over pre-phase states.

    The sweep (:meth:`_forward`) visits pre-phase states one round at a
    time.  Layers make the order topological — a state's minimal prefix
    cost ``g`` is final when its layer is processed, so nothing is ever
    re-expanded.  Three sound filters shrink each layer:

    * **banding** — an edge whose ``g`` + admissible child bound exceeds
      a *certified* incumbent (a feasible schedule's cost) is cut; the
      optimal path's ``g`` is its prefix cost, any admissible bound is
      at most its true tail, and their sum is at most the optimum ≤ the
      incumbent, so the optimal path always survives;
    * **dominance** — a layer-mate with the same cache, no cheaper
      prefix, and colorwise at-least-as-hard pending
      (:func:`_at_least_as_hard`) can never finish cheaper, so it is
      pruned before expansion;
    * **lazy-reconfiguration normal form** — some optimal schedule only
      recolors a slot in a round where the new color immediately
      executes, so candidates growing a color past its backlog are
      unreachable in the normal form and skipped.

    States with nothing pending fast-forward to the next arrival round
    (configuration timing is free, so keeping the cache dominates).  The
    terminal layer's minimum is the exact optimum and its back-pointer
    chain is the witness schedule.  Before the sweep,
    :meth:`_beam_incumbent` walks the same DP at a fixed beam width; its
    terminal value is a real schedule's cost and usually tightens the
    ΔLRU-EDF warm start into a near-optimal band.
    """

    def __init__(
        self,
        instance: Instance,
        m: int,
        *,
        max_states: int,
        warm_cost: int,
    ) -> None:
        self.m = m
        self.delta = instance.spec.reconfig_cost
        self.drop_cost = instance.spec.cost.drop_cost
        self.horizon = instance.horizon
        self.arrivals = _arrivals_by_round(instance)
        self.arrival_rounds = sorted(self.arrivals)
        self.oracle = _BoundOracle(
            self.arrivals, m, self.delta, self.drop_cost, self.horizon
        )
        #: Witness decisions on the optimal path only (replay reads the
        #: chosen cache and exactness flag; values are not consulted).
        self.memo: dict[
            tuple[int, CacheKey, PendingKey], tuple[int, CacheKey, bool]
        ] = {}
        self.max_states = max_states
        #: States kept per layer by the incumbent-seeding beam walk.  A
        #: narrow beam keeps the incumbent cost negligible; dominance
        #: pruning in the main sweep recovers what a wider beam would
        #: have saved.
        self.beam_width = 2
        self.expanded = 0
        self.pruned = 0
        self.bound_hist: dict[str, int] = {}
        #: Per-solve memos of the transition tables: candidate rows by
        #: (cache, pending count per color), shared by the beam walk and
        #: the sweep, and recolored slots by (old cache, new cache).
        self._rows: dict[
            tuple[CacheKey, tuple[tuple[int, int], ...]],
            tuple[tuple[int, CacheKey], ...],
        ] = {}
        self._reconfigs: dict[tuple[CacheKey, CacheKey], int] = {}
        self._parents: dict[
            tuple[int, CacheKey, PendingKey],
            tuple[int, CacheKey, PendingKey, CacheKey],
        ] = {}
        #: Best certified schedule cost so far: the warm start, then the
        #: beam walk's, then the optimum.
        self.incumbent = warm_cost

    def _exceeded(self) -> SearchSpaceExceeded:
        source = "none"
        if self.bound_hist:
            source = max(self.bound_hist, key=self.bound_hist.get)
        return SearchSpaceExceeded(
            f"optimal_offline exceeded {self.max_states} states "
            f"({self.expanded} nodes expanded, best incumbent "
            f"{self.incumbent}, dominant bound source {source}); the "
            f"instance is too large for exact search",
            nodes_expanded=self.expanded,
            best_incumbent=self.incumbent,
            bound_source=source,
        )

    def solve(self) -> int:
        """Beam incumbent, then the banded sweep from the black root."""
        self.incumbent = min(self.incumbent, self._beam_incumbent())
        value, terminal = self._forward(self.incumbent)
        self.incumbent = value
        self._fill_memo(terminal)
        return value

    def _prune_dominated(
        self, layer: dict[tuple[CacheKey, PendingKey], int]
    ) -> dict[tuple[CacheKey, PendingKey], int]:
        """Drop layer states dominated by a cheaper layer-mate.

        States are visited cheapest-``g`` (then smallest pending) first.
        A state is dominated when some already-kept state has colorwise
        easier pending (:func:`_at_least_as_hard`) and a prefix cheaper
        by at least ``Δ`` per slot color the dominated cache holds beyond
        the keeper's — the keeper can simulate any schedule of the
        dominated state, paying at most one recoloring per missing slot
        color, so the dominated state can never finish cheaper.  Kept
        states were expanded before any of their children exist, so no
        surviving back-pointer ever targets a pruned state.
        """
        items: list[tuple[int, int, PendingKey, CacheKey]] = []
        for (cache, pending), g in layer.items():
            size = sum(count for _, count in pending)
            items.append((g, size, pending, cache))
        items.sort()
        kept: list[
            tuple[int, dict[int, tuple[int, ...]], Counter]
        ] = []
        out: dict[tuple[CacheKey, PendingKey], int] = {}
        for g, _, pending, cache in items:
            profile = _deadline_profile(pending)
            counts = Counter(c for c in cache if c != BLACK)
            dominated = False
            for g0, profile0, counts0 in kept:
                if g0 >= g:
                    # Sorted ascending: keepers from here on are at best
                    # as cheap, and a positive recoloring surcharge only
                    # raises the bar further — same-``g`` mates with
                    # missing colors can never dominate.
                    break
                missing = sum(
                    max(0, count - counts0.get(color, 0))
                    for color, count in counts.items()
                )
                if g0 + self.delta * missing <= g and _at_least_as_hard(
                    profile0, profile
                ):
                    dominated = True
                    break
            if dominated:
                self.pruned += 1
                self.bound_hist["dominance"] = (
                    self.bound_hist.get("dominance", 0) + 1
                )
            else:
                kept.append((g, profile, counts))
                out[(cache, pending)] = g
        return out

    def _candidate_rows(
        self, cache: CacheKey, pending2: PendingKey
    ) -> tuple[tuple[int, CacheKey], ...]:
        """Lazy-normal-form candidates as ``(reconfig cost, cache)`` rows.

        Some optimal schedule only ever recolors a slot in a round where
        the new color executes a job immediately (postponing an idle
        recoloring — the slot keeps its old color, forced EDF can only
        execute *more*, and the deferred recoloring still costs at most
        Δ — never increases cost), so candidates where a strictly
        increased color count exceeds that color's post-arrival backlog
        are unreachable in the normal form and skipped outright.

        The rows depend only on ``cache`` and the pending count per
        color, so they are memoized per solve on that key.
        """
        pend_count: dict[int, int] = {}
        for (c, _), count in pending2:
            pend_count[c] = pend_count.get(c, 0) + count
        # pending2 is sorted by color, so pend_count's items are too.
        key = (cache, tuple(pend_count.items()))
        rows = self._rows.get(key)
        if rows is not None:
            return rows
        built: list[tuple[int, CacheKey]] = []
        for cand in _candidate_caches(cache, tuple(pend_count), self.m):
            lazy = True
            for c in set(cand):
                if c == BLACK:
                    continue
                grown = cand.count(c)
                if grown > cache.count(c) and grown > pend_count.get(c, 0):
                    lazy = False
                    break
            if lazy:
                built.append((self._reconfig_cost(cache, cand), cand))
        rows = self._rows[key] = tuple(built)
        return rows

    def _reconfig_cost(self, old: CacheKey, new: CacheKey) -> int:
        """``Δ`` times :func:`_reconfig_count`, memoized per solve."""
        key = (old, new)
        cost = self._reconfigs.get(key)
        if cost is None:
            cost = self._reconfigs[key] = _reconfig_count(old, new) * self.delta
        return cost

    def _forward(
        self, cutoff: int
    ) -> tuple[int, tuple[int, CacheKey, PendingKey] | None]:
        """Banded layered sweep from the all-black root.

        ``cutoff`` must be a *certified* upper bound on the optimum — the
        cost of some feasible schedule — so the band ``g + bound <=
        cutoff`` provably keeps the optimal path and the terminal minimum
        is exact.  Returns that minimum and its terminal state; the
        back-pointer chain to it is kept for :meth:`_fill_memo`.

        Each candidate row's bound is the oracle's cheap bound, raised to
        the packing relaxation's floor where that is larger.  The floor
        is evaluated only where its O(1) ceiling exceeds the cheap bound
        and would cut the row; elsewhere the floor could neither cut the
        row nor take a cut's attribution, so the cuts and the
        ``bound_source_histogram`` are those of evaluating it everywhere.
        """
        horizon = self.horizon
        drop = self.drop_cost
        oracle = self.oracle
        packing = oracle.packing
        layers: dict[int, dict[tuple[CacheKey, PendingKey], int]] = {
            0: {((BLACK,) * self.m, ()): 0}
        }
        parents: dict[
            tuple[int, CacheKey, PendingKey],
            tuple[int, CacheKey, PendingKey, CacheKey],
        ] = {}

        def relax(
            round_: int,
            state: tuple[CacheKey, PendingKey],
            g: int,
            k: int,
            prev: tuple[CacheKey, PendingKey],
            chosen: CacheKey,
        ) -> None:
            tgt = layers.setdefault(round_, {})
            if g < tgt.get(state, _HUGE):
                tgt[state] = g
                parents[(round_,) + state] = (k,) + prev + (chosen,)

        for k in range(horizon):
            layer = layers.pop(k, None)
            if not layer:
                continue
            if len(layer) > 1:
                layer = self._prune_dominated(layer)
            for state, g in layer.items():
                cache, pending = state
                self.expanded += 1
                if self.expanded > self.max_states:
                    raise self._exceeded()
                dropped, pending2 = _drop_and_arrive(k, pending, self.arrivals)
                g2 = g + dropped * drop
                if not pending2:
                    # Inactive stretch: with nothing pending, keeping the
                    # configuration dominates (timing is free) — jump to
                    # the next arrival round in one step.
                    nxt = bisect_right(self.arrival_rounds, k)
                    if nxt == len(self.arrival_rounds):
                        next_k = horizon
                        bound = 0
                        source = "terminal"
                    else:
                        next_k = self.arrival_rounds[nxt]
                        bound, source = oracle.cheap_bound(next_k, cache, ())
                    if g2 + bound > cutoff:
                        self.pruned += 1
                        self.bound_hist[source] = (
                            self.bound_hist.get(source, 0) + 1
                        )
                        continue
                    relax(next_k, (cache, ()), g2, k, state, cache)
                    continue
                k1 = k + 1
                for reconfig, cand in self._candidate_rows(cache, pending2):
                    g3 = g2 + reconfig
                    after = _execute_abstract(cand, pending2)
                    if k1 >= horizon:
                        bound = sum(count for _, count in after) * drop
                        source = "terminal"
                    else:
                        bound, source = oracle.cheap_bound(k1, cand, after)
                        ceiling = packing.ceiling(
                            k1, sum(count for _, count in after)
                        )
                        # Below either test the relaxation can neither cut
                        # the row nor take a cut's attribution.
                        if ceiling > bound and g3 + ceiling > cutoff:
                            packed = packing.floor(k1, after)
                            if packed > bound:
                                bound, source = packed, "relaxation"
                    if g3 + bound > cutoff:
                        self.pruned += 1
                        self.bound_hist[source] = (
                            self.bound_hist.get(source, 0) + 1
                        )
                        continue
                    relax(k1, (cand, after), g3, k, state, cand)

        best: int | None = None
        best_state: tuple[int, CacheKey, PendingKey] | None = None
        for (cache, pending), g in layers.get(horizon, {}).items():
            # Past the horizon every leftover drops (it extends past all
            # deadlines, so nothing could still execute).
            value = g + sum(count for _, count in pending) * drop
            if best is None or value < best:
                best = value
                best_state = (horizon, cache, pending)
        # The optimal path survives the band under a certified cutoff.
        assert best is not None and best <= cutoff
        self._parents = parents
        return best, best_state

    def _beam_incumbent(self) -> int:
        """Certified upper bound from a fixed-width walk of the DP.

        Identical transitions, no banding, but each layer is truncated
        to the :attr:`beam_width` states with the smallest ``g`` +
        cheap admissible bound.  Every surviving terminal is the cost of
        a concrete feasible schedule, so the minimum is a certified
        incumbent for :meth:`_forward` — usually far tighter than the
        ΔLRU-EDF replay.
        """
        horizon = self.horizon
        drop = self.drop_cost
        oracle = self.oracle
        width = self.beam_width
        layers: dict[int, dict[tuple[CacheKey, PendingKey], int]] = {
            0: {((BLACK,) * self.m, ()): 0}
        }
        for k in range(horizon):
            layer = layers.pop(k, None)
            if not layer:
                continue
            if len(layer) > width:
                scored = sorted(
                    layer.items(),
                    key=lambda item: (
                        item[1] + oracle.cheap_bound(k, *item[0])[0],
                        item[0],
                    ),
                )
                layer = dict(scored[:width])
            for (cache, pending), g in layer.items():
                self.expanded += 1
                if self.expanded > self.max_states:
                    raise self._exceeded()
                dropped, pending2 = _drop_and_arrive(k, pending, self.arrivals)
                g2 = g + dropped * drop
                if not pending2:
                    nxt = bisect_right(self.arrival_rounds, k)
                    next_k = (
                        self.arrival_rounds[nxt]
                        if nxt < len(self.arrival_rounds)
                        else horizon
                    )
                    tgt = layers.setdefault(next_k, {})
                    st = (cache, ())
                    if g2 < tgt.get(st, _HUGE):
                        tgt[st] = g2
                    continue
                for reconfig, cand in self._candidate_rows(cache, pending2):
                    after = _execute_abstract(cand, pending2)
                    tgt = layers.setdefault(k + 1, {})
                    st = (cand, after)
                    if g2 + reconfig < tgt.get(st, _HUGE):
                        tgt[st] = g2 + reconfig
        ub = min(
            (
                g + sum(count for _, count in pending) * drop
                for (_, pending), g in layers.get(horizon, {}).items()
            ),
            default=None,
        )
        # Keep-the-cache transitions always exist, so the beam never
        # dies before the horizon.
        assert ub is not None
        return ub

    def _fill_memo(
        self, terminal: tuple[int, CacheKey, PendingKey] | None
    ) -> None:
        """Write the argmin terminal's back-pointer chain into ``memo``.

        Replay walks every round, so fast-forward jumps fill the skipped
        (empty-pending) rounds with keep-the-cache decisions.  Memo
        values are never consulted by replay — only the chosen cache and
        the exactness flag — so they are stored as zero.
        """
        if terminal is None:
            return
        round_, cache, pending = terminal
        while True:
            link = self._parents.get((round_, cache, pending))
            if link is None:
                break
            prev_round, prev_cache, prev_pending, chosen = link
            self.memo[(prev_round, prev_cache, prev_pending)] = (
                0,
                chosen,
                True,
            )
            for j in range(prev_round + 1, round_):
                self.memo[(j, chosen, ())] = (0, chosen, True)
            round_, cache, pending = prev_round, prev_cache, prev_pending
        # Trailing arrival-free rounds after a jump straight to the
        # horizon are already filled by the loop above; nothing pends at
        # or past the horizon, so no terminal entry is needed.


def optimal_offline(
    instance: Instance,
    num_resources: int,
    *,
    max_states: int = 2_000_000,
    tracer=None,
    registry=None,
    recorder=None,
) -> OptimalResult:
    """Compute the exact optimal offline cost and a witness schedule.

    Runs the banded layered forward DP of the module docstring: the
    ΔLRU-EDF warm start and a beam walk certify an incumbent, then one
    banded sweep with the layered admissible bounds and dominance
    pruning finds the optimum.  ``states_explored`` counts expanded
    decision nodes, the beam walk's included; past ``max_states`` of
    them the solve raises :class:`SearchSpaceExceeded`.

    Optional observability: a ``tracer`` records an ``offline_solve``
    span (instance, resources → cost, nodes, prunes, bound sources); a
    metrics ``registry`` accumulates ``offline.*`` counters; a
    ``recorder`` (:class:`~repro.obs.registry.RegistrySink`) appends the
    solve to the persistent run registry.
    """
    if num_resources <= 0:
        raise ValueError("need at least one resource")
    solve_started = perf_counter()
    active_tracer = (
        tracer
        if tracer is not None and getattr(tracer, "enabled", True)
        else None
    )
    if active_tracer is not None:
        active_tracer.begin(
            "offline_solve",
            instance=instance.name or "instance",
            resources=num_resources,
            horizon=instance.horizon,
            method="layered",
        )
    m = num_resources
    warm_cost = warm_start_incumbent(instance, m)
    solver = _LayeredSolver(
        instance, m, max_states=max_states, warm_cost=warm_cost
    )
    try:
        total_cost = solver.solve()
    except SearchSpaceExceeded:
        if active_tracer is not None:
            active_tracer.end(
                "offline_solve",
                truncated=True,
                states_explored=solver.expanded,
            )
        raise
    expanded = solver.expanded
    pruned = solver.pruned
    hist = dict(solver.bound_hist)

    schedule = _replay(instance, m, solver.memo, solver.arrivals)
    breakdown = schedule.cost(instance.sequence.jobs, instance.cost_model)
    if breakdown.total != total_cost:
        raise AssertionError(
            f"replayed schedule cost {breakdown.total} != search cost {total_cost}"
        )
    if total_cost > warm_cost:
        raise AssertionError(
            f"search cost {total_cost} exceeds the warm-start incumbent "
            f"{warm_cost} — the incumbent replay is not a feasible upper bound"
        )
    verify_schedule(instance, schedule).raise_if_invalid()
    if registry is not None:
        registry.counter("offline.states_expanded").inc(expanded)
        registry.counter("offline.candidates_pruned").inc(pruned)
        for source, count in hist.items():
            registry.counter(f"offline.bound.{source}").inc(count)
    if active_tracer is not None:
        active_tracer.end(
            "offline_solve",
            cost=total_cost,
            states_explored=expanded,
            candidates_pruned=pruned,
            bound_sources=hist,
            warm_start_cost=warm_cost,
        )
    result = OptimalResult(
        total_cost,
        schedule,
        breakdown,
        expanded,
        pruned,
        bound_source_histogram=hist,
        warm_start_cost=warm_cost,
    )
    if recorder is not None:
        recorder.record_offline(
            result,
            instance,
            num_resources,
            wall_seconds=perf_counter() - solve_started,
        )
    return result


def optimal_offline_exhaustive(
    instance: Instance,
    num_resources: int,
    *,
    max_states: int = 2_000_000,
) -> OptimalResult:
    """Original recursive memoized exhaustive search.

    One of the two oracles for :func:`optimal_offline` (the other is
    :func:`repro.offline.bruteforce.bruteforce_optimal_cost`): the
    property tests and ``repro offline --check exhaustive`` cross-check
    the solver's optimum against it.  It shares the solver's transition
    helpers, so only the brute force is independent of them.
    """
    if num_resources <= 0:
        raise ValueError("need at least one resource")
    m = num_resources
    delta = instance.spec.reconfig_cost
    drop_cost = instance.spec.cost.drop_cost
    horizon = instance.horizon
    arrivals = _arrivals_by_round(instance)

    memo: dict[tuple[int, CacheKey, PendingKey], tuple[int, CacheKey, bool]] = {}
    pruned = 0

    def solve(k: int, cache: CacheKey, pending: PendingKey) -> int:
        nonlocal pruned
        if k >= horizon:
            # The horizon extends past every deadline, so nothing pends.
            return sum(count for _, count in pending) * drop_cost
        state = (k, cache, pending)
        cached_entry = memo.get(state)
        if cached_entry is not None:
            return cached_entry[0]
        if len(memo) >= max_states:
            raise SearchSpaceExceeded(
                f"optimal_offline exceeded {max_states} states; the "
                f"instance is too large for exact search",
                nodes_expanded=len(memo),
                best_incumbent=None,
            )
        dropped, pending2 = _drop_and_arrive(k, pending, arrivals)
        phase_cost = dropped * drop_cost
        pending_colors = tuple(sorted({c for ((c, _), _) in pending2}))
        best_cost: int | None = None
        best_cache: CacheKey = cache
        for candidate in _candidate_caches(cache, pending_colors, m):
            reconfig = _reconfig_count(cache, candidate) * delta
            if best_cost is not None and phase_cost + reconfig >= best_cost:
                # Reconfiguration alone already exceeds the incumbent;
                # future cost is nonnegative, so prune.
                pruned += 1
                continue
            after = _execute_abstract(candidate, pending2)
            total = phase_cost + reconfig + solve(k + 1, candidate, after)
            if best_cost is None or total < best_cost:
                best_cost = total
                best_cache = candidate
        assert best_cost is not None
        memo[state] = (best_cost, best_cache, True)
        return best_cost

    import sys

    initial_cache: CacheKey = (BLACK,) * m
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, horizon * 4 + 1000))
    try:
        total_cost = solve(0, initial_cache, ())
    finally:
        sys.setrecursionlimit(old_limit)

    schedule = _replay(instance, m, memo, arrivals)
    breakdown = schedule.cost(instance.sequence.jobs, instance.cost_model)
    if breakdown.total != total_cost:
        raise AssertionError(
            f"replayed schedule cost {breakdown.total} != search cost {total_cost}"
        )
    verify_schedule(instance, schedule).raise_if_invalid()
    return OptimalResult(
        total_cost, schedule, breakdown, len(memo), pruned, method="exhaustive"
    )


def _replay(
    instance: Instance,
    m: int,
    memo: dict[tuple[int, CacheKey, PendingKey], tuple[int, CacheKey, bool]],
    arrivals: dict[int, dict[tuple[int, int], int]],
) -> Schedule:
    """Rebuild the witness schedule by replaying memoized decisions.

    Tracks the abstract pre-phase state exactly as the solvers do, while
    maintaining concrete job queues and slot assignments to emit events.
    Only exact memo entries are trusted — on the optimal path every
    decision was solved to exactness, so an inexact entry here means the
    path was lost.
    """
    schedule = Schedule(m)
    cache: CacheKey = (BLACK,) * m
    pending: PendingKey = ()
    slot_colors: list[int] = [BLACK] * m

    # Concrete queues, FIFO by jid within a (color, deadline) class.
    queues: dict[tuple[int, int], list[Job]] = {}
    stacks: dict[tuple[int, int, int], list[Job]] = {}
    for job in sorted(instance.sequence, key=lambda j: j.jid, reverse=True):
        stacks.setdefault((job.arrival, job.color, job.deadline), []).append(job)

    for k in range(instance.horizon):
        entry = memo.get((k, cache, pending))
        if entry is None or not entry[2]:
            raise KeyError(f"optimal path lost at round {k}")
        new_cache = entry[1]

        # Drop + arrival phases (abstract and concrete in lockstep).
        _, pending2 = _drop_and_arrive(k, pending, arrivals)
        for key in [key for key in queues if key[1] <= k]:
            del queues[key]
        for (color, deadline), count in arrivals.get(k, {}).items():
            stack = stacks[(k, color, deadline)]
            queues.setdefault((color, deadline), []).extend(
                stack.pop() for _ in range(count)
            )

        # Reconfiguration phase: realize the multiset transition on the
        # physical slots — keep matching colors in place, recolor the rest.
        old_counts = Counter(cache)
        new_counts = Counter(new_cache)
        keep_budget = dict(old_counts & new_counts)
        active = [False] * m
        free_slots: list[int] = []
        for index, color in enumerate(slot_colors):
            if keep_budget.get(color, 0) > 0:
                keep_budget[color] -= 1
                active[index] = color != BLACK
            else:
                free_slots.append(index)
        for color, extra in sorted((new_counts - old_counts).items()):
            if color == BLACK:
                raise AssertionError("transitions must never add BLACK slots")
            for _ in range(extra):
                index = free_slots.pop(0)
                schedule.reconfigure(k, index, color)
                slot_colors[index] = color
                active[index] = True

        # Execution phase: EDF within each active slot's color. Slots
        # whose color left the abstract multiset stay physically colored
        # but voluntarily idle, matching the abstract accounting.
        for index in range(m):
            if not active[index]:
                continue
            color = slot_colors[index]
            candidates = [key for key in queues if key[0] == color]
            if not candidates:
                continue
            key = min(candidates, key=lambda key: key[1])
            job = queues[key].pop(0)
            if not queues[key]:
                del queues[key]
            schedule.execute(k, index, job)

        cache = new_cache
        pending = _execute_abstract(new_cache, pending2)
    return schedule
