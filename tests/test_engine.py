"""Tests of the batched four-phase engine (the Section 3.1 protocol)."""

import pytest

from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.simulation.engine import BatchedEngine, ReconfigurationScheme, simulate


class CacheEverything(ReconfigurationScheme):
    """Test scheme: cache every eligible color, capacity permitting."""

    name = "cache-everything"

    def reconfigure(self, engine):
        for color in engine.eligible_colors():
            if color not in engine.cache and not engine.cache.is_full():
                engine.cache_insert(color)


class CacheNothing(ReconfigurationScheme):
    name = "cache-nothing"

    def reconfigure(self, engine):
        return None


def named(result, name):
    """The run's trace records called ``name``, in emission order."""
    return [record for record in result.trace if record.name == name]


def single_color_instance(batch_size=3, delta=2, batches=4, bound=4):
    factory = JobFactory()
    jobs = []
    for i in range(batches):
        jobs += factory.batch(i * bound, 0, bound, batch_size)
    return make_instance(
        jobs, {0: bound}, delta, batch_mode=BatchMode.BATCHED
    )


class TestEligibilityProtocol:
    def test_color_becomes_eligible_on_wrap(self):
        inst = single_color_instance(batch_size=3, delta=2)
        result = simulate(inst, CacheNothing(), 4)
        wraps = named(result, "wrap")
        eligibles = named(result, "eligible")
        assert wraps and wraps[0].round_index == 0
        assert eligibles and eligibles[0].round_index == 0

    def test_small_batches_accumulate_before_wrap(self):
        # Δ = 5, batches of 2: counter reaches 5 only at the third batch.
        inst = single_color_instance(batch_size=2, delta=5, batches=5)
        result = simulate(inst, CacheNothing(), 4)
        wraps = named(result, "wrap")
        assert wraps[0].round_index == 8  # third batch arrives at round 8

    def test_uncached_eligible_color_reset_at_deadline(self):
        inst = single_color_instance(batch_size=3, delta=2)
        result = simulate(inst, CacheNothing(), 4)
        ineligibles = named(result, "ineligible")
        # Never cached: goes ineligible at the next multiple (round 4).
        assert ineligibles and ineligibles[0].round_index == 4

    def test_cached_color_stays_eligible(self):
        inst = single_color_instance(batch_size=3, delta=2)
        result = simulate(inst, CacheEverything(), 4)
        assert not named(result, "ineligible")


class TestWrapMultiplicity:
    """One arrival batch can cross several multiples of Δ; each crossed
    multiple is its own wrapping event (regression: only one was emitted)."""

    def test_large_batch_emits_one_wrap_per_crossed_multiple(self):
        # Δ = 2, a single batch of 8: the counter crosses 2, 4, 6, 8.
        inst = single_color_instance(batch_size=8, delta=2, batches=1, bound=8)
        result = simulate(inst, CacheNothing(), 4)
        # One record per round carries the wraps' count.
        wraps = named(result, "wrap")
        assert sum(w.data["count"] for w in wraps) == 4
        assert all(w.round_index == 0 for w in wraps)
        # Eligibility still flips exactly once.
        assert len(named(result, "eligible")) == 1

    def test_counter_remainder_carries_across_batches(self):
        # Δ = 3, batches of 4 on a cached color (no ineligibility reset):
        # cnt 4 -> 1 wrap (rem 1); cnt 5 -> 1 wrap (rem 2); cnt 6 -> 2
        # wraps (rem 0).
        inst = single_color_instance(batch_size=4, delta=3, batches=3, bound=4)
        result = simulate(inst, CacheEverything(), 4)
        rounds = [
            w.round_index for w in named(result, "wrap") for _ in range(w.data["count"])
        ]
        assert rounds == [0, 4, 8, 8]

    def test_multi_wrap_keeps_cost_parity_with_fast_path(self):
        inst = single_color_instance(batch_size=8, delta=2, batches=2, bound=8)
        full = simulate(inst, CacheEverything(), 4)
        fast = simulate(inst, CacheEverything(), 4, record="costs")
        assert fast.cost.summary() == full.cost.summary()


class TestDropPhase:
    def test_uncached_jobs_drop_at_deadline(self):
        inst = single_color_instance(batch_size=3, delta=2, batches=2)
        result = simulate(inst, CacheNothing(), 4)
        drops = named(result, "drop")
        assert [d.round_index for d in drops] == [4, 8]
        assert all(d.data["count"] == 3 for d in drops)
        assert result.cost.num_drops == 6

    def test_drop_eligibility_labels(self):
        # Δ = 10 so the color never becomes eligible: all ineligible drops.
        inst = single_color_instance(batch_size=3, delta=10, batches=2)
        result = simulate(inst, CacheNothing(), 4)
        assert result.cost.num_ineligible_drops == 6
        assert result.cost.num_eligible_drops == 0

    def test_eligible_drop_when_eligible_but_uncached(self):
        # Eligible after round 0 (Δ=2, batch 3), dropped at round 4 while
        # still eligible (reset happens after the drop in the same phase).
        inst = single_color_instance(batch_size=3, delta=2, batches=1)
        result = simulate(inst, CacheNothing(), 4)
        drops = named(result, "drop")
        assert drops[0].data["eligible"]


class TestExecutionPhase:
    def test_replication_executes_two_jobs_per_round(self):
        inst = single_color_instance(batch_size=4, delta=2, batches=1, bound=4)
        result = simulate(inst, CacheEverything(), 4, copies=2)
        by_round = result.schedule.executions_by_round()
        assert len(by_round[0]) == 2  # two copies -> two jobs in round 0
        assert result.cost.executions == 4
        assert result.cost.num_drops == 0

    def test_single_copy_executes_one_per_round(self):
        inst = single_color_instance(batch_size=4, delta=2, batches=1, bound=4)
        result = simulate(inst, CacheEverything(), 4, copies=1)
        by_round = result.schedule.executions_by_round()
        assert len(by_round[0]) == 1

    def test_double_speed_executes_twice_per_round(self):
        inst = single_color_instance(batch_size=4, delta=2, batches=1, bound=4)
        result = simulate(inst, CacheEverything(), 4, copies=1, speed=2)
        by_round = result.schedule.executions_by_round()
        assert len(by_round[0]) == 2
        minis = {e.mini_round for e in by_round[0]}
        assert minis == {0, 1}


class TestTimestampsInEngine:
    def test_timestamp_events_emitted_on_change(self):
        inst = single_color_instance(batch_size=3, delta=2, batches=3)
        result = simulate(inst, CacheEverything(), 4)
        ts_events = named(result, "timestamp")
        assert ts_events
        # The round-0 wrap yields timestamp 0, indistinguishable from the
        # initial value (the paper's "0 if no such round exists"), so the
        # first *value change* is the round-4 wrap becoming visible at 8.
        assert ts_events[0].round_index == 8
        assert ts_events[0].data["timestamp"] == 4

    def test_timestamps_nondecreasing(self):
        inst = single_color_instance(batch_size=3, delta=2, batches=5)
        result = simulate(inst, CacheEverything(), 4)
        stamps = [e.data["timestamp"] for e in named(result, "timestamp")]
        assert stamps == sorted(stamps)


class TestEngineGuards:
    def test_requires_batched_instance(self):
        inst = make_instance([], {0: 4}, 2, horizon=4)
        with pytest.raises(ValueError, match="batched"):
            BatchedEngine(inst, CacheNothing(), 4)

    def test_resources_must_divide_copies(self):
        inst = single_color_instance()
        with pytest.raises(ValueError, match="multiple"):
            BatchedEngine(inst, CacheNothing(), 5, copies=2)

    def test_engine_single_use(self):
        inst = single_color_instance()
        engine = BatchedEngine(inst, CacheNothing(), 4)
        engine.run()
        with pytest.raises(RuntimeError, match="single-use"):
            engine.run()

    def test_invalid_speed(self):
        inst = single_color_instance()
        with pytest.raises(ValueError, match="speed"):
            BatchedEngine(inst, CacheNothing(), 4, speed=3)


class TestCostScheduleConsistency:
    def test_breakdown_matches_schedule_derivation(self):
        inst = single_color_instance(batch_size=3, delta=2, batches=4)
        result = simulate(inst, CacheEverything(), 4)
        derived = result.schedule.cost(inst.sequence.jobs, inst.cost_model)
        assert derived.num_reconfigs == result.cost.num_reconfigs
        assert derived.num_drops == result.cost.num_drops
        assert derived.total == result.cost.total

    def test_every_run_is_feasible(self):
        inst = single_color_instance(batch_size=3, delta=2, batches=4)
        for scheme in (CacheEverything(), CacheNothing()):
            result = simulate(inst, scheme, 4)
            assert result.verify().ok
