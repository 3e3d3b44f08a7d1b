"""Sampling tracer: seeded round-level downsampling of the trace bus.

Full tracing is expensive at production scale — a live sink on a loaded
EXP-S cell costs well over 100% of the untraced wall clock, almost all
of it per-round detail (round spans, phase markers, execute events).
This module keeps full observability *on* by shedding exactly that
detail, deterministically, while guaranteeing everything the analysis
layers actually depend on survives:

**What is never sampled away**

* every ``span_start`` / ``span_end`` whose name is not ``"round"``
  (the ``run`` span and the search/offline spans above it);
* every ``annotation`` (epoch/super-epoch marks written by analysis);
* every *monitor-relevant* event — the names the live invariant
  monitors (:mod:`repro.obs.monitor`) register handlers for
  (:data:`MONITOR_EVENT_NAMES`).  A monitor attached behind a sampler
  therefore sees the exact record stream it needs: verdicts on a
  sampled trace equal verdicts on the full trace;
* every record without a round index (run-level events).

**What is sampled**: ``round`` spans (start and end fall together, so
span balance is preserved), ``phase`` markers, and round-scoped leaf
events outside the monitor set (``execute``, ``fast_forward``,
``cache_hit``), per *round*: a round is either fully detailed or
summary-only, decided by a seeded hash of the round index at a fixed
keep probability.  The kept set is a pure function of ``(seed,
probability)``, so two runs with equal settings produce identical
sampled traces, and :func:`sample_records` applied to a full trace
selects the same records a live :class:`SamplingTracer` emits.

Sampling is strictly observational: costs are bit-identical with and
without it, and attaching a sampler never mutates simulation state.
The engine cooperates when it can: the round driver
both engines share (:class:`~repro.simulation.engine.RoundDriver`)
consults ``tracer.keep_round(k)`` once per round and runs the *plain*
round body for sampled-out rounds, shedding the span/phase indirection
itself — without this hook the sampler still works (records are
suppressed at emission) but only saves sink costs.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.events import SECTION2_EVENTS
from repro.obs.tracing import Sink, TraceRecord, Tracer

#: Event names the live monitors (repro.obs.monitor) register handlers
#: for — every Section 2 event but ``execute`` — plus ``violation``:
#: these are never sampled away, so monitor verdicts on a sampled stream
#: equal verdicts on the full stream.
MONITOR_EVENT_NAMES = frozenset(SECTION2_EVENTS) - {"execute"} | {"violation"}


def _mix64(seed: int, value: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer)."""
    z = (seed * 0x9E3779B97F4A7C15 + value + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


_MASK = (1 << 64) - 1
#: Probability quantum: decisions compare a 16-bit hash slice against
#: ``round(p * 65536)``, so the effective probability moves in steps of
#: 1/65536 and p == 1.0 keeps everything.
_P_SCALE = 65536


class SamplingController:
    """Seeded keep/drop policy at a fixed round keep probability.

    Parameters
    ----------
    probability:
        Round keep probability in ``[0, 1]``; ``0.0`` keeps only the
        always-keep floor, ``1.0`` keeps everything.
    seed:
        Seed of the per-round hash; two controllers with equal seed and
        equal probability keep identical round sets.
    keep_events:
        Event names exempt from sampling (default:
        :data:`MONITOR_EVENT_NAMES`).
    """

    __slots__ = (
        "probability",
        "seed",
        "keep_events",
        "rounds_seen",
        "rounds_kept",
        "emitted",
        "_threshold",
        "_round",
        "_round_keep",
    )

    def __init__(
        self,
        *,
        probability: float,
        seed: int = 0,
        keep_events: Iterable[str] = MONITOR_EVENT_NAMES,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.seed = seed
        self.keep_events = frozenset(keep_events)
        self.rounds_seen = 0
        self.rounds_kept = 0
        self.emitted = 0
        self._threshold = round(probability * _P_SCALE)
        self._round: int | None = None
        self._round_keep = True

    # ------------------------------------------------------------- policy

    def keep_round(self, k: int) -> bool:
        """Decide (and cache) whether round ``k`` keeps full detail."""
        if k == self._round:
            return self._round_keep
        self._round = k
        self.rounds_seen += 1
        keep = (_mix64(self.seed, k) & 0xFFFF) < self._threshold
        self._round_keep = keep
        if keep:
            self.rounds_kept += 1
        return keep

    def admits(self, kind: str, name: str, round_index: int | None) -> bool:
        """Keep/drop decision for one record (see module docstring)."""
        if kind == "event":
            if name in self.keep_events or round_index is None:
                return True
            return self.keep_round(round_index)
        if kind == "annotation":
            return True
        # Span boundary: only round spans are sampleable.
        if name != "round":
            return True
        if round_index is None:  # defensive: round spans carry an index
            return True
        return self.keep_round(round_index)

    # -------------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        """JSON-ready sampling counts (surfaced by ``repro record``).

        Every figure is the same whichever path the engine takes.
        There is no count of suppressed records: the engine sheds
        sampled-out rounds before building their records (see
        :meth:`keep_round`) unless a profiler turns that off, so the
        records offered for suppression depend on the path.
        """
        return {
            "probability": round(self.probability, 6),
            "rounds_seen": self.rounds_seen,
            "rounds_kept": self.rounds_kept,
            "records_emitted": self.emitted,
        }


class SamplingTracer(Tracer):
    """A :class:`~repro.obs.tracing.Tracer` that samples at emission time.

    Suppression happens *before* the :class:`TraceRecord` is built, so a
    sampled-out record costs one set lookup and one hash — and the
    engines consult :meth:`keep_round` once per round to skip
    the instrumented round wrapper entirely for sampled-out rounds.

    ``replay()`` (worker record flow-back) intentionally bypasses
    sampling: records replayed from a parallel worker were already
    sampled — or deliberately not — at their source.
    """

    __slots__ = ("controller",)

    def __init__(
        self,
        sink: Sink | None = None,
        *,
        worker: str | None = None,
        controller: SamplingController | None = None,
        **controller_kwargs: Any,
    ) -> None:
        super().__init__(sink, worker=worker)
        if controller is not None and controller_kwargs:
            raise ValueError(
                "pass either a controller or controller kwargs, not both"
            )
        self.controller = controller or SamplingController(**controller_kwargs)

    def keep_round(self, k: int) -> bool:
        """Engine hook: full detail for round ``k``?  (Cached per round.)"""
        return self.controller.keep_round(k)

    def _emit(self, kind: str, name: str, round_index, data) -> None:
        if not self.enabled:
            return
        ctrl = self.controller
        if not ctrl.admits(kind, name, round_index):
            return
        ctrl.emitted += 1
        record = TraceRecord(self._seq, kind, name, round_index, data, self.worker)
        self._seq += 1
        self.sink.emit(record)


def sample_records(
    records: Iterable[TraceRecord],
    *,
    probability: float,
    seed: int = 0,
    keep_events: Iterable[str] = MONITOR_EVENT_NAMES,
) -> list[TraceRecord]:
    """Post-hoc: the sampled subset of an existing record stream.

    Pure function of its arguments — the same records, probability, and
    seed always select the same subset, the one a live
    :class:`SamplingTracer` with those settings emits.
    """
    controller = SamplingController(
        probability=probability, seed=seed, keep_events=keep_events
    )
    return [
        record
        for record in records
        if controller.admits(record.kind, record.name, record.round_index)
    ]
