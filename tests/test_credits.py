"""Tests of the credit-scheme auditors."""

import pytest

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.analysis.credits import (
    audit_epoch_credits,
    audit_ineligible_drops,
    per_epoch_ineligible_drops,
)
from repro.simulation.engine import simulate
from repro.workloads.random_batched import random_rate_limited


@pytest.fixture(params=range(4))
def run_result(request):
    inst = random_rate_limited(
        6, 3, 64, seed=request.param + 20, load=0.7, bound_choices=(2, 4, 8)
    )
    return simulate(inst, DeltaLRUEDF(), 16)


def test_epoch_credit_scheme_within_budget(run_result):
    audit = audit_epoch_credits(run_result)
    assert audit.within_budget
    assert 0.0 <= audit.utilization <= 1.0
    assert audit.scheme == "lemma-3.3-epoch-credits"


def test_epoch_credit_charges_match_cache_ins(run_result):
    audit = audit_epoch_credits(run_result)
    ins = [r for r in run_result.trace if r.name == "cache_in"]
    delta = run_result.instance.reconfig_cost
    assert audit.charged == len(ins) * 2 * delta


def test_ineligible_drop_scheme_within_budget(run_result):
    audit = audit_ineligible_drops(run_result)
    assert audit.within_budget
    assert audit.charged == run_result.cost.num_ineligible_drops


def test_per_epoch_drops_at_most_delta(run_result):
    """Lemma 3.4's inner claim: at most Δ ineligible drops per epoch."""
    delta = run_result.instance.reconfig_cost
    attributed = per_epoch_ineligible_drops(run_result)
    assert all(v <= delta for v in attributed.values())
    assert sum(attributed.values()) == run_result.cost.num_ineligible_drops


def test_per_color_charges_sum_to_total(run_result):
    audit = audit_epoch_credits(run_result)
    assert sum(audit.per_color_charges.values()) == audit.charged
