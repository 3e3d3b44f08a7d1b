"""Property tests: the exact offline solver against the exhaustive oracle.

The contract under test: ``optimal_offline`` returns the *same cost* as
the exhaustive search on every instance — across seeds, reconfiguration
costs, drop costs, and resource counts — together with a feasible
witness schedule of exactly that cost; its warm start is a certified
upper bound; and a solve that outgrows its node budget raises a
diagnosable ``SearchSpaceExceeded``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.validation import verify_schedule
from repro.offline.optimal import (
    SearchSpaceExceeded,
    optimal_offline,
    optimal_offline_exhaustive,
)
from repro.offline.lower_bounds import warm_start_incumbent
from repro.workloads.random_batched import random_general

KNOWN_BOUND_SOURCES = {
    "relaxation",
    "phase",
    "drop_floor",
    "reconfig_floor",
    "dominance",
    "terminal",
}


def _with_costs(instance, reconfig_cost, drop_cost):
    cost = replace(
        instance.spec.cost, reconfig_cost=reconfig_cost, drop_cost=drop_cost
    )
    return replace(instance, spec=replace(instance.spec, cost=cost))


def _small_instances():
    """Randomized small cells: seeds x shapes x cost models."""
    cases = []
    for seed in range(6):
        cases.append(
            (random_general(3, 2, 16, seed=seed, rate=0.5, bound_choices=(2, 4)), 2)
        )
    for seed in range(3):
        cases.append(
            (random_general(2, 1, 14, seed=seed, rate=0.8, bound_choices=(2, 4)), 1)
        )
        cases.append(
            (random_general(3, 3, 12, seed=seed, rate=0.6, bound_choices=(2, 4)), 3)
        )
    base = random_general(3, 2, 16, seed=1, rate=0.5, bound_choices=(2, 4))
    for reconfig_cost, drop_cost in ((1, 1), (1, 4), (3, 1), (5, 2)):
        cases.append((_with_costs(base, reconfig_cost, drop_cost), 2))
    return cases


@pytest.mark.parametrize(
    "instance,m",
    _small_instances(),
    ids=lambda value: getattr(value, "name", None) or str(value),
)
class TestRDSMatchesExhaustive:
    def test_cost_and_witness(self, instance, m):
        result = optimal_offline(instance, m)
        exact = optimal_offline_exhaustive(instance, m)
        assert result.cost == exact.cost
        # The witness is an actual schedule of the claimed cost, valid
        # under the full feasibility checker.
        assert verify_schedule(instance, result.schedule).ok
        breakdown = result.schedule.cost(
            instance.sequence.jobs, instance.cost_model
        )
        assert breakdown.total == result.cost


class TestBoundStack:
    def test_warm_start_is_an_upper_bound(self):
        for seed in range(4):
            instance = random_general(
                3, 2, 24, seed=seed, rate=0.5, bound_choices=(2, 4)
            )
            warm = warm_start_incumbent(instance, 2)
            opt = optimal_offline(instance, 2)
            assert opt.warm_start_cost == warm
            assert opt.cost <= warm

    def test_bound_source_histogram_is_wired(self):
        instance = random_general(
            3, 2, 32, seed=0, rate=0.5, bound_choices=(2, 4)
        )
        result = optimal_offline(instance, 2)
        assert result.method == "layered"
        assert result.nodes_expanded == result.states_explored > 0
        assert result.bound_source_histogram
        assert set(result.bound_source_histogram) <= KNOWN_BOUND_SOURCES
        assert all(
            count > 0 for count in result.bound_source_histogram.values()
        )
        assert sum(result.bound_source_histogram.values()) <= (
            result.candidates_pruned + result.bound_source_histogram.get(
                "dominance", 0
            ) + result.bound_source_histogram.get("terminal", 0)
        )


class TestSearchSpaceExceededDiagnostics:
    def test_truncated_solve_is_diagnosable(self):
        instance = random_general(
            3, 2, 48, seed=0, rate=0.8, bound_choices=(2, 4)
        )
        with pytest.raises(SearchSpaceExceeded) as excinfo:
            optimal_offline(instance, 2, max_states=40)
        exc = excinfo.value
        assert exc.nodes_expanded is not None and exc.nodes_expanded > 0
        # The warm-start replay always provides a feasible incumbent, so
        # even an immediately-truncated solve reports one.
        assert exc.best_incumbent is not None
        assert isinstance(exc.bound_source, str) and exc.bound_source
