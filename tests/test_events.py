"""Unit tests for the event records a run keeps as its trace."""

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.never import NeverReconfigurePolicy
from repro.core.events import Trace, TraceRecord
from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.simulation.engine import simulate
from repro.simulation.general import simulate_general


def build_trace():
    trace = Trace()
    trace.event("arrival", 0, color=1, count=3)
    trace.event("wrap", 0, color=1, count=1)
    trace.event("reconfig", 0, color=1, resources=2, mini=0)
    trace.event("execute", 0, color=1, count=2, mini=0)
    trace.event("drop", 4, color=2, count=2, eligible=False)
    trace.event("cache_in", 4, color=2, section="edf", mini=0)
    return trace


def test_length_and_iteration():
    trace = build_trace()
    assert len(trace) == 6
    records = list(trace)
    assert len(records) == 6
    # Every record is an event numbered by its position.
    assert [r.seq for r in records] == list(range(6))
    assert {r.kind for r in records} == {"event"}
    assert records[4] == TraceRecord(
        4, "event", "drop", 4, {"color": 2, "count": 2, "eligible": False}
    )
    assert trace.records == records


def test_drop_event_carries_eligibility():
    # A batch that never wraps drops while its color is ineligible; the
    # general engine keeps no eligibility and marks every drop eligible.
    factory = JobFactory()
    batched = make_instance(
        factory.batch(0, 0, 4, 2), {0: 4}, 4, batch_mode=BatchMode.BATCHED
    )
    general = make_instance(factory.batch(0, 0, 4, 2), {0: 4}, 4)
    for engine in ("sparse", "dense"):
        result = simulate(batched, DeltaLRUEDF(), 4, engine=engine)
        drops = [r.data for r in result.trace if r.name == "drop"]
        assert drops == [{"color": 0, "count": 2, "eligible": False}]
        result = simulate_general(
            general, NeverReconfigurePolicy(), 2, engine=engine
        )
        drops = [r.data for r in result.trace if r.name == "drop"]
        assert drops == [{"color": 0, "count": 2, "eligible": True}]
