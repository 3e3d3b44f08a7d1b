"""Golden regression pins: exact cost summaries for fixed seeds.

These values were produced by the verified implementation; any diff in
protocol semantics, tie-breaking, or generator behavior shows up here
immediately.  If an *intentional* semantic change moves them, regenerate
and update with a note in the commit.
"""

import pytest

from repro import DeltaLRU, DeltaLRUEDF, EDF, simulate
from repro.offline.heuristic import best_offline_heuristic
from repro.reductions.pipeline import run_pipeline
from repro.workloads.adversarial import appendix_a_instance, appendix_b_instance
from repro.workloads.random_batched import random_general, random_rate_limited


def batched_instance():
    return random_rate_limited(5, 3, 48, seed=11, load=0.7, bound_choices=(2, 4, 8))


GOLDEN_SCHEMES = {
    "dLRU-EDF": {
        "total": 116,
        "num_reconfigs": 36,
        "num_drops": 8,
        "num_ineligible_drops": 8,
        "executions": 176,
    },
    "dLRU": {
        "total": 84,
        "num_reconfigs": 16,
        "num_drops": 36,
        "num_ineligible_drops": 4,
        "executions": 148,
    },
    "EDF": {
        "total": 125,
        "num_reconfigs": 38,
        "num_drops": 11,
        "num_ineligible_drops": 11,
        "executions": 173,
    },
}


@pytest.mark.parametrize("scheme_cls", [DeltaLRUEDF, DeltaLRU, EDF])
def test_scheme_costs_pinned(scheme_cls):
    result = simulate(batched_instance(), scheme_cls(), 8)
    expected = GOLDEN_SCHEMES[result.algorithm]
    summary = result.cost.summary()
    for key, value in expected.items():
        assert summary[key] == value, (result.algorithm, key, summary)


def test_appendix_a_dlru_pinned():
    _, instance = appendix_a_instance(8, 2)
    result = simulate(instance, DeltaLRU(), 8)
    assert result.cost.summary()["total"] == 80
    assert result.cost.num_drops == 64  # the long-color backlog expires


def test_appendix_b_edf_pinned():
    _, instance = appendix_b_instance(4)
    result = simulate(instance, EDF(), 4)
    summary = result.cost.summary()
    assert summary["total"] == 30
    assert summary["drop_cost"] == 0  # pure thrashing, no drops


def test_pipeline_pinned():
    instance = random_general(4, 2, 40, seed=13, rate=0.3, bound_choices=(2, 4, 8))
    result = run_pipeline(instance, 16)
    summary = result.cost.summary()
    assert summary["total"] == 16
    assert summary["num_drops"] == 0
    assert summary["executions"] == 54


@pytest.mark.parametrize(
    "instance, m, costs",
    [
        (
            random_rate_limited(4, 2, 72, seed=3, bound_choices=(2, 4, 8)),
            1,
            [122, 115, 102, 106, 106, 104, 106, 106, 104, 121, 104],
        ),
        # greedy ties lookahead(w=64,h=2.0) at 24: the first cheapest wins.
        (
            random_general(4, 2, 48, seed=3, rate=0.3, bound_choices=(2, 4, 8)),
            2,
            [35, 27, 25, 36, 26, 24, 36, 26, 24, 24, 26],
        ),
    ],
)
def test_hindsight_portfolio_pinned(instance, m, costs):
    outcome = best_offline_heuristic(instance, m)
    assert [cost for _, cost in outcome.candidates] == costs
    assert outcome.best.algorithm == "offline-lookahead"
