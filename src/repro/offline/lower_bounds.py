"""Certified lower bounds on the optimal offline cost.

Instance-level bounds, each valid on its own; :func:`combined_lower_bound`
takes their maximum:

* **Per-color** (the argument of Lemma 3.1 / Corollary 3.3): for every
  color, OFF either configures it at least once (``>= Δ``) or drops all
  its jobs (``>= N_ℓ``), so ``OFF >= Σ_ℓ min(Δ, N_ℓ)``.
* **Par-EDF drops** (Lemma 3.7): preemptive EDF on an ``m``-wide super
  resource minimizes drops among all ``m``-resource schedules, so
  ``Drop(OFF) >= Drop(Par-EDF)`` and hence ``OFF >= Drop(Par-EDF)``.
* **Capacity windows**: for any window ``[a, b)``, jobs confined to the
  window (arrival ``>= a``, deadline ``<= b``) exceed the execution
  capacity ``m * (b - a) * speed`` by an amount OFF must drop.

The module also hosts the *search-state* bound layers used by the
banded layered DP in :mod:`repro.offline.optimal`:
:func:`pending_drop_floor` and :func:`pending_reconfig_floor` (the
per-color and capacity suffix floors), :class:`ColorPhaseBound` (a
reconfigure-or-drop charge per disjoint time interval),
:class:`IntervalPackingRelaxation` (a fractional interval-packing
relaxation of future execution capacity), and
:func:`warm_start_incumbent` (a feasible-schedule upper bound that
opens the search with a tight incumbent instead of infinity).

Measured competitive ratios computed against these bounds are upper
bounds on the true ratio — conservative in the direction that matters for
validating the theorems.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Mapping

import numpy as np

from repro.algorithms.par_edf import run_par_edf
from repro.core.instance import Instance


def per_color_lower_bound(instance: Instance) -> int:
    """``Σ_ℓ min(Δ, N_ℓ)`` over colors with at least one job."""
    delta = instance.spec.reconfig_cost
    drop = instance.spec.cost.drop_cost
    return sum(
        min(delta, count * drop)
        for count in instance.sequence.count_by_color().values()
    )


def par_edf_drop_lower_bound(instance: Instance, num_resources: int) -> int:
    """Drops of Par-EDF with ``num_resources``: a lower bound on OFF's drops."""
    return run_par_edf(instance, num_resources).num_drops * instance.spec.cost.drop_cost


def capacity_lower_bound(
    instance: Instance,
    num_resources: int,
    *,
    speed: int = 1,
    max_endpoints: int = 512,
) -> int:
    """Max over windows of (confined jobs - capacity), vectorized.

    Endpoint candidates are the distinct arrivals (window starts) and
    distinct deadlines (window ends); when there are more than
    ``max_endpoints`` of either, an even subsample is used (still a valid
    lower bound, possibly looser).
    """
    jobs = instance.sequence.jobs
    if not jobs:
        return 0
    arrivals = np.fromiter((j.arrival for j in jobs), dtype=np.int64, count=len(jobs))
    deadlines = np.fromiter((j.deadline for j in jobs), dtype=np.int64, count=len(jobs))

    starts = np.unique(arrivals)
    ends = np.unique(deadlines)
    if starts.shape[0] > max_endpoints:
        starts = starts[:: max(1, starts.shape[0] // max_endpoints)]
    if ends.shape[0] > max_endpoints:
        ends = ends[:: max(1, ends.shape[0] // max_endpoints)]

    capacity_per_round = num_resources * speed
    best = 0
    # For each window end b, count jobs with deadline <= b per arrival
    # bucket; the suffix sum over buckets >= a gives the confined count.
    order = np.argsort(deadlines, kind="stable")
    sorted_deadlines = deadlines[order]
    sorted_arrivals = arrivals[order]
    bucket_of = np.searchsorted(starts, sorted_arrivals, side="right") - 1
    for b in ends.tolist():
        upto = int(np.searchsorted(sorted_deadlines, b, side="right"))
        if upto == 0:
            continue
        counts = np.bincount(
            bucket_of[:upto][bucket_of[:upto] >= 0], minlength=starts.shape[0]
        )
        confined_from = np.cumsum(counts[::-1])[::-1]
        slack = confined_from - capacity_per_round * np.maximum(b - starts, 0)
        window_best = int(slack.max(initial=0))
        if window_best > best:
            best = window_best
    return best * instance.spec.cost.drop_cost


def pending_drop_floor(
    pending,
    start_round: int,
    capacity_per_round: int,
    drop_cost: int = 1,
) -> int:
    """Capacity floor on drops among ``pending`` jobs from ``start_round``.

    ``pending`` iterates ``((color, deadline), count)`` pairs.  Jobs with
    deadline ``d`` can only execute during rounds ``[start_round, d)`` —
    at most ``capacity_per_round * (d - start_round)`` of them in total —
    so any excess must be dropped.  Used as an admissible suffix bound by
    the exact offline search: future arrivals can only raise the
    optimum, so a floor on the pending-only subproblem is valid.
    """
    per_deadline: dict[int, int] = {}
    for (_, deadline), count in pending:
        per_deadline[deadline] = per_deadline.get(deadline, 0) + count
    best = 0
    confined = 0
    for deadline in sorted(per_deadline):
        confined += per_deadline[deadline]
        slack = confined - capacity_per_round * max(0, deadline - start_round)
        if slack > best:
            best = slack
    return best * drop_cost


def pending_reconfig_floor(
    pending,
    cached_colors,
    delta: int,
    drop_cost: int = 1,
) -> int:
    """Per-color floor over pending colors outside ``cached_colors``.

    The state-level analogue of :func:`per_color_lower_bound`: each
    pending color not currently cached forces the schedule to either
    recolor a slot to it (``>= Δ``) or drop all of its pending jobs.
    The charges are disjoint across colors, so the sum is admissible.
    """
    per_color: dict[int, int] = {}
    for (color, _), count in pending:
        per_color[color] = per_color.get(color, 0) + count
    return sum(
        min(delta, count * drop_cost)
        for color, count in per_color.items()
        if color not in cached_colors
    )


class IntervalPackingRelaxation:
    """Fractional interval-packing relaxation of future execution capacity.

    Drop the colors, the reconfiguration charges, and the integrality of
    slot assignments: what remains is a transportation LP — each unit job
    with release ``r`` and deadline ``d`` may be (fractionally) assigned
    to rounds in ``[r, d)``, with at most ``capacity_per_round`` units
    per round.  By LP duality (the constraint matrix is an interval
    matrix, hence totally unimodular) the minimum number of dropped
    units equals the maximum over windows ``[a, b)`` of

        confined(a, b) - capacity_per_round * (b - a)

    where ``confined`` counts jobs with ``release >= a`` and
    ``deadline <= b``.  That maximum is what :meth:`floor` returns (times
    ``drop_cost``) — an admissible lower bound on the cost-to-go of any
    search state, covering the carried pending jobs *and* every future
    arrival jointly.  It is the exact search's only bound that prices
    capacity overload across colors and rounds at once, so it pays on
    overloaded instances, where the per-color floors stay flat.

    The future side is precomputed once per instance (``O(A * D)`` for
    ``A`` arrival rounds and ``D`` distinct deadlines); each
    :meth:`floor` call is then ``O((D + |pending|) log D)``.
    :meth:`ceiling` is an ``O(1)`` upper bound on :meth:`floor` that sees
    only the number of carried jobs, so a caller can skip :meth:`floor`
    wherever even its ceiling could not change a decision.
    """

    def __init__(
        self,
        arrivals: Mapping[int, Mapping[tuple[int, int], int]],
        capacity_per_round: int,
        drop_cost: int = 1,
    ) -> None:
        self.capacity = capacity_per_round
        self.drop_cost = drop_cost
        self.rounds = sorted(arrivals)
        deadlines: set[int] = set()
        for batch in arrivals.values():
            for (_, deadline) in batch:
                deadlines.add(deadline)
        self.deadlines = sorted(deadlines)
        num_rounds = len(self.rounds)
        num_deadlines = len(self.deadlines)
        round_index = {a: i for i, a in enumerate(self.rounds)}
        deadline_index = {d: j for j, d in enumerate(self.deadlines)}
        # counts[i][j]: jobs arriving at rounds[i] with deadline deadlines[j].
        counts = [[0] * num_deadlines for _ in range(num_rounds)]
        for a, batch in arrivals.items():
            row = counts[round_index[a]]
            for (_, deadline), count in batch.items():
                row[deadline_index[deadline]] += count
        # confined[i][j]: jobs with arrival >= rounds[i], deadline <= deadlines[j].
        confined = [[0] * num_deadlines for _ in range(num_rounds)]
        for i in range(num_rounds - 1, -1, -1):
            acc = 0
            below = confined[i + 1] if i + 1 < num_rounds else None
            for j in range(num_deadlines):
                acc += counts[i][j]
                confined[i][j] = acc + (below[j] if below is not None else 0)
        self._confined = confined
        # best_from[i]: best future-only window slack over starts >= rounds[i].
        best_from = [0] * (num_rounds + 1)
        for i in range(num_rounds - 1, -1, -1):
            best_here = 0
            a = self.rounds[i]
            for j in range(num_deadlines):
                slack = confined[i][j] - capacity_per_round * max(
                    0, self.deadlines[j] - a
                )
                if slack > best_here:
                    best_here = slack
            best_from[i] = max(best_here, best_from[i + 1])
        self._best_from = best_from
        # start round -> (best_from[i0], peak future slack) for ceiling().
        self._ceiling_terms: dict[int, tuple[int, int]] = {}

    def _future_confined(self, i: int, b: int) -> int:
        """Jobs with arrival >= rounds[i] and deadline <= b."""
        if i >= len(self.rounds):
            return 0
        j = bisect_right(self.deadlines, b) - 1
        return self._confined[i][j] if j >= 0 else 0

    def floor(
        self,
        start_round: int,
        pending: Iterable[tuple[tuple[int, int], int]] = (),
    ) -> int:
        """Admissible drop floor from ``start_round`` with ``pending`` carried.

        ``pending`` iterates ``((color, deadline), count)`` pairs released
        at ``start_round``.  The maximum runs over windows starting at
        ``start_round`` (confining pending plus future jobs) and over
        later future-only windows (precomputed).
        """
        i0 = bisect_left(self.rounds, start_round)
        best = self._best_from[i0]
        per_deadline: dict[int, int] = {}
        for (_, deadline), count in pending:
            per_deadline[deadline] = per_deadline.get(deadline, 0) + count
        ends = sorted(
            set(per_deadline)
            | {d for d in self.deadlines if d >= start_round}
        )
        carried = 0
        for b in ends:
            carried += per_deadline.get(b, 0)
            slack = (
                carried
                + self._future_confined(i0, b)
                - self.capacity * max(0, b - start_round)
            )
            if slack > best:
                best = slack
        return best * self.drop_cost

    def ceiling(self, start_round: int, carried: int) -> int:
        """Upper bound on :meth:`floor` for any ``carried`` pending jobs.

        A window ``[start_round, b)`` of :meth:`floor` confines at most
        ``carried`` pending jobs, and its future part ``F(b) =
        confined(start_round, b) - capacity * (b - start_round)`` steps up
        only at a future deadline while the capacity term keeps falling,
        so ``F(b)`` is at most ``peak``, the maximum of ``F`` over future
        deadlines past ``start_round`` (or 0 if there are none).  Hence
        every pending multiset of ``carried`` jobs has ``floor <=
        drop_cost * max(best_from, carried + peak)``.  Both terms depend
        only on ``start_round`` and are computed once per round.
        """
        terms = self._ceiling_terms.get(start_round)
        if terms is None:
            i0 = bisect_left(self.rounds, start_round)
            peak = 0
            if i0 < len(self.rounds):
                row = self._confined[i0]
                for j in range(
                    bisect_right(self.deadlines, start_round), len(self.deadlines)
                ):
                    slack = row[j] - self.capacity * (
                        self.deadlines[j] - start_round
                    )
                    if slack > peak:
                        peak = slack
            terms = self._ceiling_terms[start_round] = (self._best_from[i0], peak)
        best_from, peak = terms
        return max(best_from, carried + peak) * self.drop_cost


class ColorPhaseBound:
    """Paging-style phase floor on reconfigure-or-drop cost over time.

    The per-color reconfigure floor charges each color *once* over the
    whole suffix and the packing relaxation prices only capacity drops,
    so on reconfiguration-dominated instances neither grows with the
    horizon.  This layer does: partition ``[start, horizon)`` into
    disjoint intervals and charge each interval for the colors it
    *encloses* (arrival and effective-deadline window both inside the
    interval).  A schedule that recolors ``j`` slot-units during an
    interval holds at most ``m + j`` distinct colors there, so with
    ``C`` enclosed colors it leaves at least ``C - m - j`` of them
    unconfigured for the entire interval and drops all their enclosed
    jobs.  The interval's certified charge is therefore

        min over j >= 0 of  j·Δ + drop · (sum of the C - m - j
                                          smallest enclosed color counts)

    Intervals are disjoint in both time and jobs, so the charges add,
    and the backward DP ``P[t] = max(P[t+1], max_e charge(t, e) +
    P[e+1])`` picks the partition that certifies the most — a floor that
    grows linearly with the horizon, exactly like the true cost.

    For a concrete search state the first interval is *cache-aware*: the
    configuration entering ``start`` is known, so only colors outside it
    count and a single un-cached enclosed demand already forces a charge
    (no need for ``m + 1`` distinct colors).  Two first-interval
    candidates are tried — the earliest un-cached enclosed demand
    (fastest handoff to the generic DP) and the interval enclosing every
    un-cached pending job (the full reconfigure-or-drop charge on the
    carried backlog) — and the best is chained onto ``P``.

    The generic DP is precomputed per instance in ``O(H · (H + J·C))``;
    each :meth:`floor` call is then ``O(|pending| + colors · log J)``.
    The exact solver in :mod:`repro.offline.optimal` maxes this floor
    with the per-color suffix floors for every state it scores.
    """

    def __init__(
        self,
        arrivals: Mapping[int, Mapping[tuple[int, int], int]],
        capacity_slots: int,
        horizon: int,
        reconfig_cost: int,
        drop_cost: int = 1,
    ) -> None:
        self.horizon = horizon
        self.m = capacity_slots
        self.delta = reconfig_cost
        self.drop_cost = drop_cost
        # (arrival, enclosure end, color) -> job count; a job with
        # deadline d is executable in rounds [arrival, d) and force-dropped
        # at the horizon, so its enclosure ends at min(d, horizon) - 1.
        demands: dict[tuple[int, int, int], int] = {}
        for a, batch in arrivals.items():
            for (color, deadline), count in batch.items():
                e = min(deadline, horizon) - 1
                if e >= a:
                    key = (a, e, color)
                    demands[key] = demands.get(key, 0) + count
        by_end = sorted(
            ((e, a, color, count) for (a, e, color), count in demands.items())
        )
        # P[t]: best certified charge packable into [t, horizon), by a
        # backward DP whose inner sweep grows the first interval [t, e]
        # over distinct enclosure ends, pricing each stop with the
        # j-recoloring exchange above.
        self._best_from = [0] * (horizon + 2)
        for t in range(horizon - 1, -1, -1):
            best = self._best_from[t + 1]
            counts: dict[int, int] = {}
            i = 0
            n = len(by_end)
            while i < n:
                e = by_end[i][0]
                while i < n and by_end[i][0] == e:
                    _, a, color, count = by_end[i]
                    if a >= t:
                        counts[color] = counts.get(color, 0) + count
                    i += 1
                if len(counts) > capacity_slots:
                    charge = self._exchange_charge(sorted(counts.values()))
                    if charge:
                        cand = charge + self._best_from[e + 1]
                        if cand > best:
                            best = cand
            self._best_from[t] = best
        # Per-color (arrivals ascending, suffix-min of enclosure ends) for
        # the cache-aware first interval.
        per_color: dict[int, list[tuple[int, int]]] = {}
        for (a, e, color) in demands:
            per_color.setdefault(color, []).append((a, e))
        self._color_arrivals: dict[int, tuple[list[int], list[int]]] = {}
        for color, pairs in per_color.items():
            pairs.sort()
            suffix_min = [0] * len(pairs)
            acc = horizon
            for i in range(len(pairs) - 1, -1, -1):
                acc = min(acc, pairs[i][1])
                suffix_min[i] = acc
            self._color_arrivals[color] = ([a for a, _ in pairs], suffix_min)

    def _exchange_charge(self, sorted_counts: list[int], covered: int | None = None) -> int:
        """``min_j j·Δ + drop · (sum of the C - covered - j smallest counts)``.

        ``covered`` defaults to ``m`` (a fixed configuration); the
        cache-aware first interval passes 0 because colors already in
        the cache were excluded from ``sorted_counts`` up front.
        """
        free = self.m if covered is None else covered
        excess = len(sorted_counts) - free
        if excess <= 0:
            return 0
        dropped = 0
        best = excess * self.delta  # j == excess: recolor everything in.
        for idx in range(excess):
            dropped += sorted_counts[idx]
            # Drop the idx+1 smallest colors, recolor the rest in.
            cand = dropped * self.drop_cost + (excess - idx - 1) * self.delta
            if cand < best:
                best = cand
        return best

    def _earliest_enclosed(self, color: int, start: int) -> int:
        """Earliest enclosure end of a ``color`` demand arriving >= start."""
        entry = self._color_arrivals.get(color)
        if entry is None:
            return self.horizon
        starts, suffix_min = entry
        i = bisect_left(starts, start)
        return suffix_min[i] if i < len(starts) else self.horizon

    def floor(
        self,
        start_round: int,
        cache_colors: Iterable[int] = (),
        pending: Iterable[tuple[tuple[int, int], int]] = (),
    ) -> int:
        """Admissible phase floor from ``start_round`` for a search state.

        ``cache_colors`` is the configuration entering the round (a
        ``"*"`` wildcard disables the cache-aware first interval);
        ``pending`` iterates ``((color, deadline), count)`` pairs carried
        into the round, which extend the first interval's demand set.
        """
        if start_round >= self.horizon:
            return 0
        best = self._best_from[start_round]
        cached = set(cache_colors)
        if "*" in cached:
            return best
        unit = min(self.delta, self.drop_cost)
        # Candidate A: hand off to the generic DP at the earliest
        # un-cached enclosed demand (one charge, fastest restart).
        first_end = self.horizon
        uncached_pending: dict[int, tuple[int, int]] = {}  # color -> (count, max end)
        for (color, deadline), count in pending:
            if color in cached:
                continue
            e = min(deadline, self.horizon) - 1
            if e < start_round:
                continue
            if e < first_end:
                first_end = e
            prev = uncached_pending.get(color)
            uncached_pending[color] = (
                count if prev is None else prev[0] + count,
                e if prev is None else max(prev[1], e),
            )
        for color in self._color_arrivals:
            if color in cached:
                continue
            e = self._earliest_enclosed(color, start_round)
            if e < first_end:
                first_end = e
        if unit and first_end < self.horizon:
            cand = unit + self._best_from[first_end + 1]
            if cand > best:
                best = cand
        # Candidate B: enclose the whole un-cached backlog and charge the
        # full reconfigure-or-drop exchange on it.
        if uncached_pending:
            last_end = max(e for _, e in uncached_pending.values())
            charge = self._exchange_charge(
                sorted(c for c, _ in uncached_pending.values()), covered=0
            )
            cand = charge + self._best_from[last_end + 1]
            if cand > best:
                best = cand
        return best


def warm_start_incumbent(instance: Instance, num_resources: int) -> int:
    """Feasible-schedule upper bound on the offline optimum.

    Batched instances replay ΔLRU-EDF through the fast engine
    (``record="costs"`` skips schedule construction entirely); general
    instances replay the greedy-pending and short-window lookahead
    policies through the general engine and keep the cheaper.  Every
    replayed schedule is feasible, so its cost upper-bounds the optimum —
    the exact search opens with this incumbent instead of infinity, which
    lets the admissible bounds cut from the first node.
    """
    if len(instance.sequence) == 0:
        return 0
    if instance.spec.batch_mode.is_batched:
        from repro.algorithms.dlru_edf import DeltaLRUEDF
        from repro.simulation.engine import simulate

        # copies=1: the replay must run on exactly the search's
        # ``num_resources`` — augmented copies would undercut OPT(m) and
        # break the incumbent's upper-bound property.
        return simulate(
            instance,
            DeltaLRUEDF(),
            num_resources,
            copies=1,
            record="costs",
        ).total_cost
    from repro.algorithms.greedy import GreedyPendingPolicy
    from repro.offline.heuristic import LookaheadPolicy
    from repro.simulation.general import simulate_general

    return min(
        simulate_general(
            instance, GreedyPendingPolicy(), num_resources, record="costs"
        ).total_cost,
        simulate_general(
            instance, LookaheadPolicy(window=16), num_resources, record="costs"
        ).total_cost,
    )


def combined_lower_bound(
    instance: Instance,
    num_resources: int,
    *,
    speed: int = 1,
    use_capacity: bool = True,
) -> int:
    """Maximum of the three certified lower bounds."""
    best = max(
        per_color_lower_bound(instance),
        par_edf_drop_lower_bound(instance, num_resources * speed),
    )
    if use_capacity:
        best = max(
            best, capacity_lower_bound(instance, num_resources, speed=speed)
        )
    return best
