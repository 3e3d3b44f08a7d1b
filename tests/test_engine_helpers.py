"""Unit tests for the scheme-facing engine helpers (ranking, LRU order)."""

import pytest

from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.simulation.engine import BatchedEngine, ReconfigurationScheme


class NoOp(ReconfigurationScheme):
    name = "noop"

    def reconfigure(self, engine):
        return None


def build_engine():
    factory = JobFactory()
    jobs = []
    jobs += factory.batch(0, 0, 4, 3)   # wraps at round 0 (Δ=2)
    jobs += factory.batch(0, 1, 8, 3)   # wraps at round 0
    jobs += factory.batch(0, 2, 4, 1)   # below Δ: ineligible
    inst = make_instance(
        jobs,
        {0: 4, 1: 8, 2: 4},
        2,
        batch_mode=BatchMode.RATE_LIMITED,
        horizon=16,
    )
    return BatchedEngine(inst, NoOp(), 8)


def advance(engine, rounds):
    for k in range(rounds):
        engine.round_index = k
        engine._drop_phase(k)
        engine._arrival_phase(k)


class TestEligibleColors:
    def test_only_wrapped_colors_are_eligible(self):
        engine = build_engine()
        advance(engine, 1)
        assert engine.eligible_colors() == [0, 1]

    def test_consistent_ascending_order(self):
        engine = build_engine()
        advance(engine, 1)
        assert engine.eligible_colors() == sorted(engine.eligible_colors())


class TestRankEligible:
    def test_nonidle_before_idle(self):
        engine = build_engine()
        advance(engine, 1)
        assert engine.rank_eligible() == [0, 1]
        # Drain color 0's 3 jobs through the engine, two per round at
        # copies 2 (round 1 is no boundary, so nothing drops or arrives
        # there): it becomes idle and ranks after color 1.
        engine.cache_insert(0)
        engine._execution_phase(0, 0)
        engine.round_index = 1
        engine._execution_phase(1, 0)
        assert engine.state(0).idle
        assert engine.rank_eligible() == [1, 0]

    def test_deadline_orders_nonidle(self):
        engine = build_engine()
        advance(engine, 1)
        # Both nonidle: dd(0) = 4 < dd(1) = 8.
        assert engine.rank_eligible() == [0, 1]

    def test_explicit_pool_respected(self):
        engine = build_engine()
        advance(engine, 1)
        assert engine.rank_eligible([1]) == [1]


class TestLruOrder:
    def test_tie_breaks_by_color(self):
        engine = build_engine()
        advance(engine, 1)
        # Both timestamps are 0 at round 0: consistent order breaks ties.
        assert engine.lru_order() == [0, 1]

    def test_fresher_timestamp_first(self):
        engine = build_engine()
        # Uncached colors go ineligible at their deadlines, so rank an
        # explicit pool; record a later wrap for color 1 to break the tie.
        advance(engine, 9)
        engine.state(1).record_wrap(8)
        engine.round_index = 16  # both wraps now strictly in the past
        ts = {c: engine.timestamp(c) for c in (0, 1)}
        assert ts[1] > ts[0]
        assert engine.lru_order([0, 1]) == [1, 0]


class TestCacheHelpers:
    def test_insert_then_evict_round_trip(self):
        engine = build_engine()
        advance(engine, 1)
        engine.cache_insert(0, section="lru")
        assert 0 in engine.cache
        assert engine.cost.num_reconfigs == 2  # two replicas recolored
        engine.cache_evict(0)
        assert 0 not in engine.cache
        # Eviction itself is free.
        assert engine.cost.num_reconfigs == 2

    def test_physical_reuse_costs_nothing(self):
        engine = build_engine()
        advance(engine, 1)
        engine.cache_insert(0)
        engine.cache_evict(0)
        engine.cache_insert(0)  # same slot still holds color 0
        assert engine.cost.num_reconfigs == 2
