"""Behavioral tests of ΔLRU, EDF, and ΔLRU-EDF reconfiguration schemes."""

import pytest

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.simulation.engine import simulate
from repro.workloads.adversarial import appendix_a_instance, appendix_b_instance


def named(result, name):
    """The run's trace records called ``name``, in emission order."""
    return [record for record in result.trace if record.name == name]


def contention_instance(num_colors=6, delta=2, horizon=32):
    """More eligible colors than cache slots, steady demand."""
    factory = JobFactory()
    jobs = []
    for color in range(num_colors):
        bound = 4 if color % 2 == 0 else 8
        for start in range(0, horizon, bound):
            jobs += factory.batch(start, color, bound, delta)
    bounds = {c: (4 if c % 2 == 0 else 8) for c in range(num_colors)}
    return make_instance(
        jobs, bounds, delta, batch_mode=BatchMode.RATE_LIMITED
    )


class TestDeltaLRUBehavior:
    def test_cache_holds_most_recent_timestamps(self):
        inst = contention_instance()
        result = simulate(inst, DeltaLRU(), 4)  # 2 distinct slots
        assert result.verify().ok
        assert result.cache_occupancy_ok if hasattr(result, "cache_occupancy_ok") else True

    def test_underutilization_on_appendix_a(self):
        construction, inst = appendix_a_instance(4, 2)
        result = simulate(inst, DeltaLRU(), 4)
        # ΔLRU pins short-term colors and drops the long-term backlog.
        assert result.cost.num_drops >= construction.long_bound // 2

    def test_deterministic(self):
        inst = contention_instance()
        a = simulate(inst, DeltaLRU(), 8)
        b = simulate(contention_instance(), DeltaLRU(), 8)
        assert a.cost.summary() == b.cost.summary()


class TestEDFBehavior:
    def test_prefers_nonidle_earliest_deadline(self):
        factory = JobFactory()
        # Color 0 has the earlier deadline (bound 4), color 1 later (8).
        jobs = factory.batch(0, 0, 4, 2) + factory.batch(0, 1, 8, 2)
        inst = make_instance(
            jobs, {0: 4, 1: 8}, 2, batch_mode=BatchMode.RATE_LIMITED
        )
        result = simulate(inst, EDF(), 2)  # one distinct slot
        first_in = named(result, "cache_in")[0]
        assert first_in.data["color"] == 0

    def test_thrashing_on_appendix_b(self):
        from repro.workloads.adversarial import AppendixBConstruction

        construction = AppendixBConstruction(4, 5, 3, 6)  # gap k - j = 3
        result = simulate(construction.instance(), EDF(), 4)
        # EDF keeps swapping the long colors in and out: many evictions,
        # growing with the gap (4 already at gap 3 vs 1 at gap 1).
        evictions = len(named(result, "cache_out"))
        assert evictions >= 4

    def test_executes_everything_with_ample_capacity(self):
        inst = contention_instance(num_colors=3)
        result = simulate(inst, EDF(), 12)
        assert result.cost.num_eligible_drops == 0


class TestDeltaLRUEDFBehavior:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            DeltaLRUEDF(lru_fraction=1.5)
        with pytest.raises(ValueError):
            DeltaLRUEDF(lru_fraction=-0.1)

    def test_sections_recorded_in_trace(self):
        inst = contention_instance()
        result = simulate(inst, DeltaLRUEDF(), 8)
        sections = {e.data["section"] for e in named(result, "cache_in")}
        assert "lru" in sections or "edf" in sections

    def test_bounded_on_both_adversaries(self):
        # The combination stays within a small constant of OFF on the
        # instances that blow up each pure strategy.
        from repro.offline.handcrafted import (
            appendix_a_offline_schedule,
            appendix_b_offline_schedule,
        )

        ca, ia = appendix_a_instance(8, 2)
        _, off_a = appendix_a_offline_schedule(ca, ia)
        ratio_a = simulate(ia, DeltaLRUEDF(), 8).total_cost / off_a.total

        cb, ib = appendix_b_instance(4)
        _, off_b = appendix_b_offline_schedule(cb, ib)
        ratio_b = simulate(ib, DeltaLRUEDF(), 8).total_cost / off_b.total

        assert ratio_a < 8
        assert ratio_b < 8

    def test_beats_dlru_on_appendix_a(self):
        _, inst = appendix_a_instance(8, 2)
        combined = simulate(inst, DeltaLRUEDF(), 8).total_cost
        pure_lru = simulate(appendix_a_instance(8, 2)[1], DeltaLRU(), 8).total_cost
        assert combined < pure_lru

    def test_beats_edf_on_appendix_b_at_larger_gap(self):
        from repro.workloads.adversarial import AppendixBConstruction

        construction = AppendixBConstruction(4, 5, 3, 7)
        inst = construction.instance()
        combined = simulate(inst, DeltaLRUEDF(), 4).total_cost
        pure_edf = simulate(construction.instance(), EDF(), 4).total_cost
        assert combined < pure_edf

    def test_all_schemes_feasible_on_contention(self):
        for scheme in (DeltaLRU(), EDF(), DeltaLRUEDF()):
            result = simulate(contention_instance(), scheme, 8)
            assert result.verify().ok, scheme.name

    def test_lru_half_keeps_recent_color_cached_while_idle(self):
        # A color with a recent timestamp but no pending jobs must stay in
        # the cache (the recency half ignores idleness) — the anti-thrash
        # property EDF lacks.
        factory = JobFactory()
        jobs = []
        for start in range(0, 32, 4):
            jobs += factory.batch(start, 0, 4, 2)  # steady short color
        jobs += factory.batch(0, 1, 32, 16)  # background color
        inst = make_instance(
            jobs, {0: 4, 1: 32}, 2, batch_mode=BatchMode.RATE_LIMITED
        )
        result = simulate(inst, DeltaLRUEDF(), 8)
        outs = [e for e in named(result, "cache_out") if e.data["color"] == 0]
        # Once color 0's timestamp is established it never leaves the cache.
        assert all(e.round_index <= 8 for e in outs)
