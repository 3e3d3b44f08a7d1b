"""Golden regression pins: exact costs and work counts for fixed seeds.

These values were produced by the verified implementation; any diff in
protocol semantics, tie-breaking, or generator behavior shows up here
immediately.  The work counts (rounds each engine core executes on the
EXP-S quick grid, nodes the exact offline solver expands on the offline
bench's smoke cells) are the deterministic half of what the benchmarks
measure; their wall clock is the performance ledger's.  If an
*intentional* change moves a pin, update it in the same change and say
why in CHANGES.md.
"""

import pytest

from repro import DeltaLRU, DeltaLRUEDF, EDF, simulate
from repro.experiments.registry import run_experiment
from repro.offline.heuristic import best_offline_heuristic
from repro.offline.optimal import optimal_offline
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


#: EXP-S quick grid, (total_cost, rounds_executed) per cell, keyed
#: (resources, colors, horizon, record, engine).  The costs hold every
#: backend to the same answer; the round counts pin how much of the
#: horizon each core simulates (sparse and vectorized skip, dense
#: does not; full-record sparse runs every round).
EXP_S_QUICK = {
    (8, 4, 256, "full", "sparse"): (32, 272),
    (8, 4, 256, "costs", "sparse"): (32, 68),
    (16, 8, 256, "full", "sparse"): (73, 272),
    (16, 8, 256, "costs", "sparse"): (73, 136),
    (8, 4, 256, "costs", "dense"): (32, 272),
    (8, 4, 256, "costs", "vectorized"): (32, 68),
    (16, 8, 256, "costs", "dense"): (73, 272),
    (16, 8, 256, "costs", "vectorized"): (73, 136),
    (64, 128, 4096, "costs", "dense"): (36608, 4352),
    (64, 128, 4096, "costs", "sparse"): (36608, 2224),
    (16, 16, 512, "costs", "general-dense"): (64, 768),
    (16, 16, 512, "costs", "general-sparse"): (64, 130),
}


def test_exp_s_quick_costs_and_rounds_pinned():
    report = run_experiment("EXP-S", quick=True)
    measured = {
        (row["resources"], row["colors"], row["horizon"], row["record"],
         row["engine"]): (row["total_cost"], row["rounds_executed"])
        for row in report.rows
    }
    assert measured == EXP_S_QUICK
    costs_by_cell = {}
    for (resources, colors, horizon, _, _), (cost, _) in measured.items():
        costs_by_cell.setdefault((resources, colors, horizon), set()).add(cost)
    for cell, costs in costs_by_cell.items():
        assert len(costs) == 1, (cell, costs)


#: The offline bench's smoke cells, ``random_general(3, 2, horizon,
#: seed=seed, rate=0.4, bound_choices=(2, 4))`` solved exactly with two
#: resources: (seed, horizon) -> (cost, nodes expanded).
OFFLINE_SMOKE = {
    (0, 48): (23, 1404),
    (0, 64): (29, 1651),
    (0, 96): (42, 2258),
    (1, 48): (17, 481),
    (1, 64): (21, 620),
    (1, 96): (27, 786),
}


@pytest.mark.parametrize("seed, horizon", sorted(OFFLINE_SMOKE))
def test_offline_smoke_cell_pinned(seed, horizon):
    instance = random_general(
        3, 2, horizon, seed=seed, rate=0.4, bound_choices=(2, 4)
    )
    result = optimal_offline(instance, 2)
    assert (result.cost, result.nodes_expanded) == OFFLINE_SMOKE[seed, horizon]
