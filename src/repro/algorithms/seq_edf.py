"""Seq-EDF and DS-Seq-EDF (Section 3.3 analysis algorithms).

Seq-EDF is "defined the same as EDF except that Seq-EDF is given m
resources and uses all the cache capacity to cache distinct colors" — no
replication.  DS-Seq-EDF is double-speed Seq-EDF: the reconfiguration and
execution phases repeat twice per round.

These algorithms exist to *prove* Lemma 3.2 (the eligible-drop bound of
ΔLRU-EDF); in this repository they are also runnable, which lets the test
suite check the containment chain

    EligibleDrop(ΔLRU-EDF) <= Drop(DS-Seq-EDF) <= Drop(Par-EDF) <= Drop(OFF)

empirically on random instances (``EXP-L``).
"""

from __future__ import annotations

from repro.algorithms.edf import EDF
from repro.core.instance import Instance
from repro.simulation.engine import BatchedEngine, RunResult


class SeqEDF(EDF):
    """EDF over a distinct-color cache without replication."""

    name = "Seq-EDF"
    # Inherits EDF's stationarity (same admission rule, different cache
    # geometry); stated explicitly so the sparse-core contract is
    # visible.
    stationary = True


def run_seq_edf(instance: Instance, num_resources: int) -> RunResult:
    """Run uni-speed Seq-EDF with ``num_resources`` distinct slots."""
    return BatchedEngine(
        instance, SeqEDF(), num_resources, copies=1, speed=1
    ).run()


def run_ds_seq_edf(instance: Instance, num_resources: int) -> RunResult:
    """Run double-speed Seq-EDF (DS-Seq-EDF) with ``num_resources`` slots."""
    engine = BatchedEngine(
        instance, SeqEDF(), num_resources, copies=1, speed=2
    )
    engine.scheme.name = "DS-Seq-EDF"
    return engine.run()
