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

The module also hosts the two *search-state* bound tiers used by the
banded layered DP in :mod:`repro.offline.optimal` —
:func:`pending_drop_floor` and :func:`pending_reconfig_floor` (the
per-color and capacity suffix floors), and
:class:`IntervalPackingRelaxation` (a fractional interval-packing
relaxation of future execution capacity) — and
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


#: Window endpoints :func:`capacity_lower_bound` scans per side at most.
MAX_WINDOW_ENDPOINTS = 512


def capacity_lower_bound(
    instance: Instance,
    num_resources: int,
    *,
    speed: int = 1,
) -> int:
    """Max over windows of (confined jobs - capacity), vectorized.

    Endpoint candidates are the distinct arrivals (window starts) and
    distinct deadlines (window ends); when there are more than
    :data:`MAX_WINDOW_ENDPOINTS` of either, an even subsample is used
    (still a valid lower bound, possibly looser).
    """
    jobs = instance.sequence.jobs
    if not jobs:
        return 0
    arrivals = np.fromiter((j.arrival for j in jobs), dtype=np.int64, count=len(jobs))
    deadlines = np.fromiter((j.deadline for j in jobs), dtype=np.int64, count=len(jobs))

    starts = np.unique(arrivals)
    ends = np.unique(deadlines)
    if starts.shape[0] > MAX_WINDOW_ENDPOINTS:
        starts = starts[:: max(1, starts.shape[0] // MAX_WINDOW_ENDPOINTS)]
    if ends.shape[0] > MAX_WINDOW_ENDPOINTS:
        ends = ends[:: max(1, ends.shape[0] // MAX_WINDOW_ENDPOINTS)]

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
    per_color: Mapping[int, int],
    cached_colors,
    delta: int,
    drop_cost: int = 1,
) -> int:
    """Per-color floor over pending colors outside ``cached_colors``.

    ``per_color`` maps each color to its job count.  The state-level
    analogue of :func:`per_color_lower_bound`: each such color not
    currently cached forces the schedule to either recolor a slot to it
    (``>= Δ``) or drop all of its jobs.  The charges are disjoint across
    colors, so the sum is admissible.
    """
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
) -> int:
    """Maximum of the three certified lower bounds."""
    return max(
        per_color_lower_bound(instance),
        par_edf_drop_lower_bound(instance, num_resources * speed),
        capacity_lower_bound(instance, num_resources, speed=speed),
    )
