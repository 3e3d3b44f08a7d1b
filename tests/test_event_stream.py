"""One event stream: a full run's ``Trace`` is the bus's Section 2 records.

The engines report each Section 2 event once; that one emission feeds
the attached tracer, the ``record="full"`` trace, or both.  On every
batched scheme, speed and backend, and on the general engine, this
checks that

* the trace equals the Section 2 records an attached tracer receives,
  up to their sequence numbers;
* a sampling tracer leaves the trace as it is with no tracer;
* the traces of all backends are equal;
* per (round, mini-round, color), the trace's ``execute`` counts and
  ``reconfig`` resources equal the schedule's executions and
  reconfigurations.

It also pins the layering that lets the engines build records without
the observability package.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.algorithms.greedy import GreedyPendingPolicy
from repro.algorithms.never import AlwaysReconfigurePolicy
from repro.algorithms.randomized import RandomEvict, RandomizedMarking
from repro.algorithms.seq_edf import SeqEDF
from repro.algorithms.static import StaticPartitionPolicy
from repro.core.events import SECTION2_EVENTS
from repro.obs import MemorySink, Tracer
from repro.obs.sampling import SamplingTracer
from repro.simulation.engine import simulate
from repro.simulation.general import simulate_general
from repro.workloads.random_batched import (
    random_batched,
    random_general,
    random_rate_limited,
)

BATCHED_SCHEMES = [
    pytest.param(DeltaLRU, id="dlru"),
    pytest.param(EDF, id="edf"),
    pytest.param(DeltaLRUEDF, id="dlru-edf"),
    pytest.param(SeqEDF, id="seq-edf"),
    pytest.param(RandomEvict, id="random-evict"),
    pytest.param(RandomizedMarking, id="randomized-marking"),
]
GENERAL_POLICIES = [
    pytest.param(GreedyPendingPolicy, id="greedy"),
    pytest.param(AlwaysReconfigurePolicy, id="always"),
    pytest.param(StaticPartitionPolicy, id="static"),
]
BATCHED_BACKENDS = ("sparse", "dense", "vectorized")


def _unnumbered(records):
    return [(r.kind, r.name, r.round_index, r.data, r.worker) for r in records]


def _bus_events(sink):
    return [
        r for r in sink.records if r.kind == "event" and r.name in SECTION2_EVENTS
    ]


def _assert_trace_matches_schedule(result):
    executed, reconfigured = Counter(), Counter()
    for record in result.trace:
        key = (record.round_index, record.data.get("mini"), record.data["color"])
        if record.name == "execute":
            executed[key] += record.data["count"]
        elif record.name == "reconfig":
            reconfigured[key] += record.data["resources"]
    schedule = result.schedule
    assert executed == Counter(
        (e.round_index, e.mini_round, e.color) for e in schedule.executions
    )
    assert reconfigured == Counter(
        (e.round_index, e.mini_round, e.new_color)
        for e in schedule.reconfigurations
    )


def _check_one_stream(run, backends):
    """The four checks over ``run(backend, tracer)``."""
    traces = {}
    for backend in backends:
        plain = run(backend, None)
        sink = MemorySink(capacity=None)
        traced = run(backend, Tracer(sink))
        assert _unnumbered(traced.trace) == _unnumbered(_bus_events(sink))
        assert list(traced.trace) == list(plain.trace)
        sampled = run(
            backend,
            SamplingTracer(MemorySink(capacity=None), probability=0.3, seed=1),
        )
        assert list(sampled.trace) == list(plain.trace)
        _assert_trace_matches_schedule(plain)
        traces[backend] = list(plain.trace)
    first, *rest = backends
    assert traces[first], "the workload must produce events"
    for backend in rest:
        assert traces[backend] == traces[first], backend


@pytest.mark.parametrize("scheme_cls", BATCHED_SCHEMES)
@pytest.mark.parametrize("speed", [1, 2])
@pytest.mark.parametrize(
    "workload",
    [
        lambda: random_batched(6, 3, 96, seed=4, load=0.8),
        lambda: random_rate_limited(6, 2, 96, seed=5, load=0.7),
    ],
    ids=["batched", "rate-limited"],
)
def test_batched_engine_reports_one_stream(scheme_cls, speed, workload):
    instance = workload()
    copies = 1 if scheme_cls is SeqEDF else 2

    def run(backend, tracer):
        return simulate(
            instance, scheme_cls(), 8, copies=copies, speed=speed,
            engine=backend, tracer=tracer,
        )

    _check_one_stream(run, BATCHED_BACKENDS)


@pytest.mark.parametrize("policy_cls", GENERAL_POLICIES)
@pytest.mark.parametrize("speed", [1, 2])
def test_general_engine_reports_one_stream(policy_cls, speed):
    instance = random_general(6, 4, 128, seed=2, rate=0.6, bound_choices=(2, 4, 8))

    def run(backend, tracer):
        return simulate_general(
            instance, policy_cls(), 4, speed=speed, engine=backend, tracer=tracer
        )

    _check_one_stream(run, ("sparse", "dense"))
    # The general engine keeps no eligibility: every drop is eligible.
    drops = [r for r in run("sparse", None).trace if r.name == "drop"]
    assert all(r.data["eligible"] is True for r in drops)


@pytest.mark.parametrize("module", ["repro", "repro.simulation.engine"])
def test_engines_load_no_observability_module(module):
    # A fresh interpreter: this process has already imported repro.obs.
    probe = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.obs')))"
    )
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"
