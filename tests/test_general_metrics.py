"""Engine parity checks: the batched and general engines on one instance."""

from repro.algorithms.greedy import GreedyPendingPolicy
from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.simulation.engine import simulate
from repro.simulation.general import simulate_general
from repro.workloads.random_batched import random_rate_limited


def test_engines_agree_on_conservation():
    """Batched and general engines account for every job exactly once on
    the same instance (different policies, same bookkeeping rules)."""
    inst = random_rate_limited(4, 2, 32, seed=5, bound_choices=(2, 4))
    from repro.algorithms.dlru_edf import DeltaLRUEDF

    batched = simulate(inst, DeltaLRUEDF(), 8)
    general = simulate_general(inst, GreedyPendingPolicy(), 8, copies=2)
    n_jobs = len(inst.sequence)
    assert batched.cost.executions + batched.cost.num_drops == n_jobs
    assert general.cost.executions + general.cost.num_drops == n_jobs


def test_general_engine_respects_batched_deadlines():
    """On a batched instance, the general engine's per-job deadlines
    coincide with the batched engine's per-color deadlines: no job
    survives past its batch boundary in either."""
    factory = JobFactory()
    jobs = factory.batch(0, 0, 4, 3) + factory.batch(4, 0, 4, 3)
    inst = make_instance(
        jobs, {0: 4}, 2, batch_mode=BatchMode.RATE_LIMITED
    )

    class Idle(GreedyPendingPolicy):
        def reconfigure(self, engine):
            return None

    result = simulate_general(inst, Idle(), 2)
    drops_by_round = {}
    for event in result.trace:
        if event.name == "drop":
            drops_by_round[event.round_index] = event.data["count"]
    assert drops_by_round == {4: 3, 8: 3}
