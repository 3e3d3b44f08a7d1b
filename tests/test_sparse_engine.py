"""Sparse engine core: dense/sparse/vectorized parity and B&B parity.

The sparse core (boundary calendar, inactive-stretch fast-forward,
fixed-point reconfigure skipping) and the vectorized core (columnar
state, event-driven batches) are pure performance layers — every test
here pins them to the dense core bit for bit.  Likewise the
branch-and-bound offline solver must reproduce the exhaustive reference
exactly while expanding no more states.
"""

import pytest

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.algorithms.seq_edf import SeqEDF
from repro.algorithms.greedy import GreedyPendingPolicy
from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.offline.optimal import optimal_offline, optimal_offline_exhaustive
from repro.simulation.engine import BatchedEngine, simulate
from repro.simulation.general import GeneralEngine
from repro.workloads.random_batched import (
    random_batched,
    random_general,
    random_rate_limited,
)

SCHEMES = [
    pytest.param(DeltaLRU, id="dlru"),
    pytest.param(EDF, id="edf"),
    pytest.param(DeltaLRUEDF, id="dlru-edf"),
    pytest.param(SeqEDF, id="seq-edf"),
]


def _workloads(seed):
    yield random_rate_limited(
        6, 3, 96, seed=seed, load=0.7, bound_choices=(2, 4, 8)
    )
    yield random_batched(
        5, 2, 96, seed=seed + 100, load=0.5, bound_choices=(3, 6, 12)
    )


def _run_pair(instance, scheme_cls, *, speed, record):
    copies = 1 if scheme_cls is SeqEDF else 2
    dense = simulate(
        instance,
        scheme_cls(),
        4,
        copies=copies,
        speed=speed,
        record=record,
        engine="dense",
    )
    sparse = simulate(
        instance,
        scheme_cls(),
        4,
        copies=copies,
        speed=speed,
        record=record,
        engine="sparse",
    )
    return dense, sparse


class TestDenseSparseParity:
    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    @pytest.mark.parametrize("speed", [1, 2])
    def test_full_record_traces_match(self, scheme_cls, speed):
        for seed in (0, 1, 2):
            for instance in _workloads(seed):
                dense, sparse = _run_pair(
                    instance, scheme_cls, speed=speed, record="full"
                )
                assert dense.total_cost == sparse.total_cost
                assert dense.cost.num_reconfigs == sparse.cost.num_reconfigs
                assert dense.cost.num_drops == sparse.cost.num_drops
                assert list(dense.trace) == list(sparse.trace)

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    @pytest.mark.parametrize("speed", [1, 2])
    def test_costs_record_costs_match(self, scheme_cls, speed):
        for seed in (0, 1, 2):
            for instance in _workloads(seed):
                dense, sparse = _run_pair(
                    instance, scheme_cls, speed=speed, record="costs"
                )
                assert dense.total_cost == sparse.total_cost
                assert dense.cost.num_reconfigs == sparse.cost.num_reconfigs
                assert (
                    dense.cost.drops_by_color == sparse.cost.drops_by_color
                )

    def test_sparse_core_actually_skips_rounds(self):
        # Low load with large delay bounds: long stretches have no
        # boundaries and no pending work, which is exactly what the
        # calendar fast-forwards through in costs mode.
        instance = random_rate_limited(
            16, 3, 2048, seed=7, load=0.15, bound_choices=(64, 128)
        )
        dense, sparse = _run_pair(
            instance, DeltaLRUEDF, speed=1, record="costs"
        )
        assert sparse.total_cost == dense.total_cost
        assert sparse.rounds_executed is not None
        assert sparse.rounds_executed < instance.horizon
        assert 0.0 < sparse.active_round_fraction < 1.0

    def test_full_record_never_skips(self):
        instance = random_rate_limited(
            16, 3, 512, seed=7, load=0.15, bound_choices=(64, 128)
        )
        result = simulate(
            instance, DeltaLRUEDF(), 4, record="full", engine="sparse"
        )
        assert result.active_round_fraction == 1.0


def _unordered_spec_instance():
    """A batched instance whose spec declares colors out of order."""
    factory = JobFactory()
    bounds = {3: 4, 1: 4, 2: 8, 0: 2}
    jobs = []
    for k in range(0, 64, 2):
        for color, bound in bounds.items():
            if k % bound == 0 and (k + color) % 3:
                jobs += factory.batch(k, color, bound, 1 + (k + color) % 2)
    return make_instance(
        jobs, bounds, 2, batch_mode=BatchMode.BATCHED, horizon=72
    )


class TestCalendars:
    """Both modes read the calendars, so pin them against a scan."""

    @pytest.mark.parametrize("start_round", [0, 1, 13, 40, 72])
    def test_boundary_calendar_matches_scan(self, start_round):
        instances = [_unordered_spec_instance()] + [
            random_rate_limited(
                6, 3, 96, seed=seed, load=0.7, bound_choices=(2, 4, 8)
            )
            for seed in (0, 1)
        ]
        for instance in instances:
            if start_round > instance.horizon:
                continue
            engine = BatchedEngine(
                instance, DeltaLRU(), 4, record="costs",
                start_round=start_round,
            )
            bounds = instance.spec.delay_bounds
            expected = {}
            for k in range(start_round, instance.horizon):
                # Spec declaration order, as the dense scan visited them.
                colors = [c for c, d in bounds.items() if k % d == 0]
                if colors:
                    expected[k] = colors
            assert engine._calendar == expected
            assert engine._event_rounds == sorted(expected)

    def test_deadline_calendar_matches_scan(self):
        instances = [
            random_general(
                6, 4, 192, seed=seed, rate=0.1, bound_choices=(4, 8, 16)
            )
            for seed in (0, 1)
        ]
        factory = JobFactory()
        jobs = factory.batch(0, 3, 4, 2) + factory.batch(0, 1, 4, 2)
        jobs += factory.batch(2, 2, 8, 1) + factory.batch(9, 1, 4, 1)
        instances.append(make_instance(jobs, {3: 4, 1: 4, 2: 8}, 2))
        for instance in instances:
            engine = GeneralEngine(instance, GreedyPendingPolicy(), 4)
            jobs = list(instance.sequence)
            expected = {}
            for k in range(instance.horizon):
                colors = sorted({j.color for j in jobs if j.deadline == k})
                if colors:
                    expected[k] = colors
            assert engine._calendar == expected
            arrivals = sorted({j.arrival for j in jobs})
            assert list(engine._event_rounds) == arrivals
            # Derived once per sequence: a second engine shares both.
            again = GeneralEngine(instance, GreedyPendingPolicy(), 4)
            assert again._calendar is engine._calendar
            assert again._event_rounds is engine._event_rounds


class TestVectorizedParity:
    """The vectorized backend against the dense core, bit for bit."""

    def _pair(self, instance, scheme_cls, *, speed, record):
        copies = 1 if scheme_cls is SeqEDF else 2
        dense = simulate(
            instance,
            scheme_cls(),
            4,
            copies=copies,
            speed=speed,
            record=record,
            engine="dense",
        )
        vectorized = simulate(
            instance,
            scheme_cls(),
            4,
            copies=copies,
            speed=speed,
            record=record,
            engine="vectorized",
        )
        return dense, vectorized

    def _assert_identical_costs(self, dense, vectorized):
        assert dense.cost.summary() == vectorized.cost.summary()
        assert dense.cost.reconfigs_by_color == vectorized.cost.reconfigs_by_color
        assert dense.cost.drops_by_color == vectorized.cost.drops_by_color
        assert (
            dense.cost.executions_by_color == vectorized.cost.executions_by_color
        )

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    @pytest.mark.parametrize("speed", [1, 2])
    def test_costs_record_costs_match(self, scheme_cls, speed):
        for seed in (0, 1, 2):
            for instance in _workloads(seed):
                dense, vectorized = self._pair(
                    instance, scheme_cls, speed=speed, record="costs"
                )
                self._assert_identical_costs(dense, vectorized)

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    @pytest.mark.parametrize("speed", [1, 2])
    def test_full_record_traces_match(self, scheme_cls, speed):
        # Full-record runs take the faithful fallback core; the backend
        # must still be indistinguishable, trace included.
        for instance in _workloads(0):
            dense, vectorized = self._pair(
                instance, scheme_cls, speed=speed, record="full"
            )
            self._assert_identical_costs(dense, vectorized)
            assert list(dense.trace) == list(vectorized.trace)

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_sparse_cell_costs_match(self, scheme_cls):
        # Low load, large bounds: the sparse-friendly regime where the
        # boundary calendar is nearly empty.
        instance = random_rate_limited(
            16, 3, 2048, seed=7, load=0.15, bound_choices=(64, 128)
        )
        dense, vectorized = self._pair(
            instance, scheme_cls, speed=1, record="costs"
        )
        self._assert_identical_costs(dense, vectorized)

    def test_dense_cell_costs_match(self):
        # Capacity covers every color: the stable-tail regime of the
        # EXP-S dense cells.
        instance = random_rate_limited(
            8, 4, 512, seed=3, load=0.9, bound_choices=(2, 4, 8)
        )
        dense, vectorized = self._pair(
            instance, DeltaLRUEDF, speed=1, record="costs"
        )
        self._assert_identical_costs(dense, vectorized)


class TestBranchAndBoundParity:
    def _instances(self):
        for seed in (0, 1, 2):
            yield random_rate_limited(
                3, 2, 20, seed=seed, load=0.7, bound_choices=(2, 4)
            )
            yield random_batched(
                3, 2, 16, seed=seed + 50, load=0.6, bound_choices=(2, 4)
            )
        yield random_general(
            3, 2, 16, seed=9, rate=0.5, bound_choices=(2, 3, 5)
        )

    def test_bnb_matches_exhaustive_and_prunes(self):
        total_bnb = total_exhaustive = 0
        for instance in self._instances():
            bnb = optimal_offline(instance, 2)
            ref = optimal_offline_exhaustive(instance, 2)
            assert bnb.cost == ref.cost
            total_bnb += bnb.states_explored
            total_exhaustive += ref.states_explored
        # The admissible bound plus candidate ordering must prune in
        # aggregate, not merely break even.
        assert total_bnb < total_exhaustive

    def test_bnb_schedule_is_a_real_witness(self):
        instance = random_rate_limited(
            3, 2, 24, seed=3, load=0.8, bound_choices=(2, 4)
        )
        result = optimal_offline(instance, 2)
        # optimal_offline verifies internally; re-derive the cost from
        # the returned schedule to pin the witness, not just the number.
        assert result.breakdown.total == result.cost
