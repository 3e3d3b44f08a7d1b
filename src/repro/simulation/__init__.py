"""Discrete-event simulation of the four-phase round model (Section 2).

Two engines live here, both run by one round driver
(:class:`~repro.simulation.engine.RoundDriver`):

* :class:`~repro.simulation.engine.BatchedEngine` implements the common
  protocol of Section 3.1 (counters, eligibility, wrapping events, the
  replicated cache) and delegates only the reconfiguration phase to a
  pluggable :class:`~repro.simulation.engine.ReconfigurationScheme` —
  exactly how the paper factors ΔLRU, EDF and ΔLRU-EDF.
* :class:`~repro.simulation.general.GeneralEngine` simulates arbitrary
  (non-batched) instances for baselines and end-to-end pipelines, with
  per-job deadlines.

Under ``record="full"`` both keep their Section 2 event records as a
:class:`~repro.core.events.Trace` (the records an attached tracer
receives) and an explicit :class:`~repro.core.schedule.Schedule` that is
checked by the shared feasibility verifier.
"""

from repro.simulation.resources import CachePool, Slot
from repro.simulation.state import ColorState
from repro.simulation.engine import (
    BatchedEngine,
    ReconfigurationScheme,
    RunResult,
    simulate,
)
from repro.simulation.general import GeneralEngine, GeneralPolicy, simulate_general

__all__ = [
    "CachePool",
    "Slot",
    "ColorState",
    "BatchedEngine",
    "ReconfigurationScheme",
    "RunResult",
    "simulate",
    "GeneralEngine",
    "GeneralPolicy",
    "simulate_general",
]
