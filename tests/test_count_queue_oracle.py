"""Job-level oracle for the count queues.

Both engine cores keep a color's pending batch as an arrival round and a
count, so comparing the sparse core against the dense one no longer
compares counts against jobs.  This oracle does: a ``record="full"`` run
names every executed job, and the ages an attached registry recorded in
a ``record="costs"`` run must equal the ages recomputed from that
schedule job by job — an execution's age is its round minus the job's
arrival, a drop's age is the color's delay bound ``D_ℓ``.  The costs
run settles drain stretches in closed form, which is exactly where a
count could drift from the jobs it stands for.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.core.validation import verify_schedule
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.simulation.engine import simulate
from repro.workloads.random_batched import random_batched, random_rate_limited

SCHEMES = {"dlru": DeltaLRU, "edf": EDF, "dlru-edf": DeltaLRUEDF}


def _oracle_ages(instance, schedule) -> dict[int, list[int]]:
    """Per-color job ages from a full-record schedule."""
    jobs = {job.jid: job for job in instance.sequence}
    ages: dict[int, list[int]] = {}
    executed = set()
    for execution in schedule.executions:
        job = jobs[execution.jid]
        executed.add(job.jid)
        ages.setdefault(job.color, []).append(execution.round_index - job.arrival)
    for job in instance.sequence:
        # Instances place every deadline before the horizon, so a job
        # the schedule does not run is dropped at its deadline.
        if job.jid not in executed:
            ages.setdefault(job.color, []).append(job.delay_bound)
    return ages


def _histogram(ages) -> dict:
    hist = Histogram("oracle")
    for age in ages:
        hist.observe(age)
    return {"counts": hist.counts, "count": hist.count, "sum": hist.total}


def _cells(snapshot_hist: dict) -> dict:
    return {key: snapshot_hist[key] for key in ("counts", "count", "sum")}


@st.composite
def instances(draw):
    maker = draw(st.sampled_from([random_rate_limited, random_batched]))
    num_colors = draw(st.integers(1, 6))
    delta = draw(st.integers(1, 6))
    horizon = draw(st.integers(8, 160))
    seed = draw(st.integers(0, 2**16))
    bounds = draw(
        st.sampled_from([(2, 4), (2, 4, 8), (4, 8, 16), (1, 2, 4, 8, 16)])
    )
    load = draw(st.sampled_from([0.3, 0.6, 1.0]))
    instance = maker(
        num_colors, delta, horizon, seed=seed, load=load, bound_choices=bounds
    )
    resources = 2 * draw(st.integers(1, 4))
    return instance, resources


@pytest.mark.parametrize("speed", (1, 2))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("engine", ("sparse", "dense"))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=instances())
def test_count_queues_match_the_job_oracle(engine, scheme, speed, case):
    instance, resources = case
    make = SCHEMES[scheme]
    registry = MetricsRegistry()
    costs = simulate(
        instance,
        make(),
        resources,
        speed=speed,
        record="costs",
        registry=registry,
        engine=engine,
    )
    full = simulate(instance, make(), resources, speed=speed, engine=engine)

    assert costs.cost == full.cost
    report = verify_schedule(instance, full.schedule, strict=True)
    assert report.ok, report.violations[:3]

    ages = _oracle_ages(instance, full.schedule)
    histograms = registry.snapshot()["histograms"]
    all_ages = [age for color_ages in ages.values() for age in color_ages]
    assert _cells(histograms["engine.backlog_age"]) == _histogram(all_ages)
    recorded = {
        int(name.rsplit(".", 1)[1])
        for name in histograms
        if name.startswith("engine.backlog_age.color.")
    }
    assert recorded == set(ages)
    for color, color_ages in ages.items():
        hist = histograms[f"engine.backlog_age.color.{color}"]
        assert _cells(hist) == _histogram(color_ages)
    counters = registry.snapshot()["counters"]
    assert counters["engine.executions"] == full.cost.executions
    assert counters["engine.drops"] == full.cost.num_drops
