"""Edge-case battery: extreme parameters through the whole stack."""

import pytest

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.offline.optimal import optimal_offline
from repro.reductions.pipeline import run_pipeline
from repro.simulation.engine import simulate
from repro.workloads.random_batched import random_general


class TestDeltaOne:
    """Δ = 1: every arrival wraps the counter; eligibility is immediate."""

    def make(self, batches=4):
        factory = JobFactory()
        jobs = []
        for i in range(batches):
            jobs += factory.batch(i * 4, 0, 4, 2)
        return make_instance(
            jobs, {0: 4}, 1, batch_mode=BatchMode.RATE_LIMITED
        )

    @pytest.mark.parametrize("scheme_cls", [DeltaLRU, EDF, DeltaLRUEDF])
    def test_all_schemes_run(self, scheme_cls):
        result = simulate(self.make(), scheme_cls(), 4)
        assert result.verify().ok
        assert result.cost.num_ineligible_drops == 0

    def test_everything_executes_with_capacity(self):
        result = simulate(self.make(), DeltaLRUEDF(), 8)
        assert result.cost.num_drops == 0


class TestUnitDelayBounds:
    """D_ℓ = 1: every round is a batch boundary, window is one round."""

    def make(self):
        factory = JobFactory()
        jobs = []
        for k in range(8):
            jobs += factory.batch(k, 0, 1, 1)
        jobs += factory.batch(0, 1, 4, 3)
        return make_instance(
            jobs, {0: 1, 1: 4}, 2, batch_mode=BatchMode.RATE_LIMITED
        )

    def test_unit_bound_jobs_execute_same_round_or_drop(self):
        result = simulate(self.make(), DeltaLRUEDF(), 8)
        assert result.verify().ok
        for event in result.schedule.executions:
            if event.color == 0:
                job = next(
                    j for j in self.make().sequence if j.jid == event.jid
                )
                assert event.round_index == job.arrival

    def test_pipeline_passes_unit_bounds_through(self):
        inst = self.make()
        # GENERAL-mode version of the same jobs.
        general = make_instance(
            list(inst.sequence), dict(inst.spec.delay_bounds), 2
        )
        result = run_pipeline(general, 8)
        assert result.verify().ok


class TestSingleResource:
    def test_capacity_one_distinct_slot(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 4, 2) + factory.batch(0, 1, 4, 2)
        inst = make_instance(
            jobs, {0: 4, 1: 4}, 1, batch_mode=BatchMode.RATE_LIMITED
        )
        result = simulate(inst, DeltaLRUEDF(), 2, copies=2)  # 1 slot
        assert result.verify().ok

    def test_optimal_single_resource(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 2, 2) + factory.batch(0, 1, 2, 2)
        inst = make_instance(jobs, {0: 2, 1: 2}, 1)
        opt = optimal_offline(inst, 1)
        # One resource, 2 rounds, 4 jobs: at most 2 executed.
        assert opt.num_drops >= 2


class TestHugeDelta:
    def test_never_eligible_everything_ineligible_dropped(self):
        factory = JobFactory()
        jobs = []
        for i in range(4):
            jobs += factory.batch(i * 4, 0, 4, 2)
        inst = make_instance(
            jobs, {0: 4}, 1000, batch_mode=BatchMode.RATE_LIMITED
        )
        result = simulate(inst, DeltaLRUEDF(), 4)
        assert result.cost.num_drops == 8
        assert result.cost.num_ineligible_drops == 8
        assert result.cost.num_reconfigs == 0

    def test_optimal_prefers_dropping(self):
        factory = JobFactory()
        inst = make_instance(factory.batch(0, 0, 4, 3), {0: 4}, 1000)
        opt = optimal_offline(inst, 1)
        assert opt.cost == 3  # dropping beats a 1000-cost reconfiguration


class TestZeroJobColors:
    def test_declared_but_silent_colors_are_harmless(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 4, 2)
        inst = make_instance(
            jobs, {0: 4, 1: 4, 2: 8, 3: 16}, 2,
            batch_mode=BatchMode.RATE_LIMITED,
        )
        result = simulate(inst, DeltaLRUEDF(), 8)
        assert result.verify().ok
        touched = {r.new_color for r in result.schedule.reconfigurations}
        assert touched <= {0}

    def test_empty_instance_all_schemes(self, empty_instance):
        for scheme_cls in (DeltaLRU, EDF, DeltaLRUEDF):
            result = simulate(empty_instance, scheme_cls(), 4)
            assert result.total_cost == 0


class TestBatchExactlyDelta:
    def test_wrap_at_exact_boundary(self):
        factory = JobFactory()
        inst = make_instance(
            factory.batch(0, 0, 8, 5),
            {0: 8},
            5,
            batch_mode=BatchMode.RATE_LIMITED,
        )
        result = simulate(inst, DeltaLRUEDF(), 4)
        # cnt hits exactly Δ: wraps to 0, color eligible, jobs servable.
        assert any(r.name == "wrap" for r in result.trace)
        assert result.cost.num_ineligible_drops == 0


class TestMinimumResourceCounts:
    def test_dlru_edf_minimum_n4(self):
        """n=4 gives capacity 2: one LRU slot + one EDF slot."""
        factory = JobFactory()
        jobs = []
        for color in range(3):
            for start in range(0, 16, 4):
                jobs += factory.batch(start, color, 4, 2)
        inst = make_instance(
            jobs,
            {c: 4 for c in range(3)},
            2,
            batch_mode=BatchMode.RATE_LIMITED,
        )
        result = simulate(inst, DeltaLRUEDF(), 4)
        assert result.verify().ok

    def test_pure_lru_fraction_one_requires_room(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 4, 2)
        inst = make_instance(
            jobs, {0: 4}, 2, batch_mode=BatchMode.RATE_LIMITED
        )
        # lru_fraction=1.0 degenerates to pure ΔLRU; still feasible.
        result = simulate(inst, DeltaLRUEDF(lru_fraction=1.0), 4)
        assert result.verify().ok


class TestLongQuietPeriods:
    def test_cached_color_stays_eligible_across_gap(self):
        """An uncontested cached color keeps its eligibility through a
        long quiet period (ineligibility only strikes outside the cache)."""
        factory = JobFactory()
        jobs = []
        jobs += factory.batch(0, 0, 4, 3)
        jobs += factory.batch(64, 0, 4, 3)  # long silence between
        inst = make_instance(
            jobs, {0: 4}, 2, batch_mode=BatchMode.RATE_LIMITED, horizon=80
        )
        result = simulate(inst, DeltaLRUEDF(), 4)
        names = [r.name for r in result.trace]
        assert names.count("eligible") == 1
        assert names.count("ineligible") == 0
        assert result.cost.num_drops == 0

    def test_contested_color_goes_ineligible_across_gap(self):
        """With competitors saturating the cache during the gap, the
        silent color is evicted and loses eligibility — the full cycle."""
        factory = JobFactory()
        jobs = []
        jobs += factory.batch(0, 0, 4, 3)
        jobs += factory.batch(64, 0, 4, 3)
        for color in (1, 2, 3, 4):
            for start in range(8, 64, 4):
                jobs += factory.batch(start, color, 4, 3)
        bounds = {c: 4 for c in range(5)}
        inst = make_instance(
            jobs, bounds, 2, batch_mode=BatchMode.RATE_LIMITED, horizon=80
        )
        result = simulate(inst, DeltaLRUEDF(), 4)  # capacity 2 slots
        color0_eligible = [
            e for e in result.trace
            if e.name == "eligible" and e.data["color"] == 0
        ]
        color0_ineligible = [
            e for e in result.trace
            if e.name == "ineligible" and e.data["color"] == 0
        ]
        assert len(color0_eligible) == 2  # once per burst
        assert len(color0_ineligible) >= 1

    def test_general_engine_quiet_tail(self):
        inst = random_general(3, 2, 16, seed=0, rate=0.5)
        padded = make_instance(
            list(inst.sequence),
            dict(inst.spec.delay_bounds),
            2,
            horizon=inst.horizon + 100,
        )
        result = run_pipeline(padded, 8)
        assert result.verify().ok
