"""Tests of the general (non-batched) engine and baseline policies."""

import pytest

from repro.algorithms.greedy import GreedyPendingPolicy
from repro.algorithms.never import AlwaysReconfigurePolicy, NeverReconfigurePolicy
from repro.algorithms.static import StaticPartitionPolicy
from repro.core.cost import CostModel
from repro.core.instance import (
    BatchMode,
    CountSequence,
    Instance,
    ProblemSpec,
    make_instance,
)
from repro.core.job import JobFactory
from repro.simulation.general import GeneralEngine, simulate_general


@pytest.fixture
def staggered_instance():
    """Jobs of one color arriving at staggered rounds (distinct deadlines)."""
    factory = JobFactory()
    jobs = []
    for arrival in (0, 1, 2, 5, 6):
        jobs += factory.batch(arrival, 0, 3, 1)
    jobs += factory.batch(2, 1, 4, 2)
    return make_instance(jobs, {0: 3, 1: 4}, 2)


class TestGeneralEngineSemantics:
    def test_per_job_deadlines_respected(self, staggered_instance):
        result = simulate_general(
            staggered_instance, NeverReconfigurePolicy(), 2
        )
        # Nothing executes; each job drops exactly at its own deadline.
        drops = {}
        for event in result.trace:
            if type(event).__name__ == "DropEvent":
                drops[event.round_index] = (
                    drops.get(event.round_index, 0) + event.count
                )
        assert drops == {3: 1, 4: 1, 5: 1, 6: 2, 8: 1, 9: 1}

    def test_greedy_executes_everything_with_capacity(self, staggered_instance):
        result = simulate_general(staggered_instance, GreedyPendingPolicy(), 2)
        assert result.verify().ok
        assert result.cost.num_drops == 0

    def test_earliest_deadline_order_within_color(self, staggered_instance):
        result = simulate_general(staggered_instance, GreedyPendingPolicy(), 2)
        rounds_by_jid = {
            e.jid: e.round_index for e in result.schedule.executions
        }
        jobs = sorted(
            (j for j in staggered_instance.sequence if j.color == 0),
            key=lambda j: j.arrival,
        )
        executed_rounds = [rounds_by_jid[j.jid] for j in jobs if j.jid in rounds_by_jid]
        assert executed_rounds == sorted(executed_rounds)

    def test_resources_copies_validation(self, staggered_instance):
        with pytest.raises(ValueError):
            GeneralEngine(staggered_instance, GreedyPendingPolicy(), 3, copies=2)

    def test_single_use(self, staggered_instance):
        engine = GeneralEngine(staggered_instance, GreedyPendingPolicy(), 2)
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()


class TestStaticPolicy:
    def test_static_configures_once(self, staggered_instance):
        result = simulate_general(
            staggered_instance, StaticPartitionPolicy(), 2
        )
        rounds = {r.round_index for r in result.schedule.reconfigurations}
        assert rounds <= {0}
        assert result.cost.num_reconfigs == 2

    def test_explicit_assignment(self, staggered_instance):
        result = simulate_general(
            staggered_instance, StaticPartitionPolicy(assignment=[0]), 2
        )
        configured = {r.new_color for r in result.schedule.reconfigurations}
        assert configured == {0}

    def test_weights_apportionment(self, staggered_instance):
        policy = StaticPartitionPolicy(weights={0: 3.0, 1: 1.0})
        result = simulate_general(staggered_instance, policy, 2)
        assert result.verify().ok

    def test_assignment_and_weights_mutually_exclusive(self):
        with pytest.raises(ValueError):
            StaticPartitionPolicy(assignment=[0], weights={0: 1.0})

    def test_oversized_assignment_rejected(self, staggered_instance):
        policy = StaticPartitionPolicy(assignment=[0, 1, 0])
        with pytest.raises(ValueError, match="slots"):
            simulate_general(staggered_instance, policy, 2)


class TestDegeneratePolicies:
    def test_never_reconfigure_drops_all(self, staggered_instance):
        result = simulate_general(
            staggered_instance, NeverReconfigurePolicy(), 2
        )
        assert result.cost.num_drops == len(staggered_instance.sequence)
        assert result.cost.num_reconfigs == 0

    def test_always_reconfigure_chases_backlog(self, staggered_instance):
        result = simulate_general(
            staggered_instance, AlwaysReconfigurePolicy(), 2
        )
        assert result.verify().ok
        # Chasing executes everything here but keeps paying reconfigs.
        assert result.cost.num_drops == 0

    def test_greedy_hysteresis_validation(self):
        with pytest.raises(ValueError):
            GreedyPendingPolicy(hysteresis=-1)


class TestCountSequenceRefused:
    @pytest.mark.parametrize("record", ["full", "costs"])
    def test_construction_names_the_problem(self, record):
        spec = ProblemSpec({0: 4, 1: 8}, CostModel(2), BatchMode.RATE_LIMITED)
        instance = Instance(spec, CountSequence({0: {0: 4, 1: 2}}, 12))
        with pytest.raises(ValueError, match="needs job objects"):
            GeneralEngine(
                instance, GreedyPendingPolicy(), 4, copies=2, record=record
            )
        with pytest.raises(ValueError, match="needs job objects"):
            simulate_general(
                instance, GreedyPendingPolicy(), 4, copies=2, record=record
            )


class TestGeneralEngineHelpers:
    def test_pending_count_and_earliest_deadline(self, staggered_instance):
        engine = GeneralEngine(
            staggered_instance, NeverReconfigurePolicy(), 2
        )
        engine._arrival_phase(0)
        assert engine.pending_count(0) == 1
        assert engine.earliest_deadline(0) == 3
        assert engine.earliest_deadline(1) is None
        assert engine.nonidle_colors() == [0]
