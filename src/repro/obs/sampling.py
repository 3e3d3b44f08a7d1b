"""Adaptive sampling tracer: overhead-bounded round-level downsampling.

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
summary-only, decided by a seeded hash of the round index — the kept
set is a pure function of ``(seed, probability)``, so two runs at the
same fixed probability produce identical sampled traces.

**The adaptive controller** holds the *sampleable* tracing overhead
under a target fraction of wall clock: it prices emissions by timing a
strided subsample of sink calls (scaled by
:data:`RECORD_COST_MULTIPLIER` to cover record construction and the
instrumented-loop wrapper the sink never sees), estimates the overhead
fraction, and walks the keep probability multiplicatively toward the
target.  The always-keep floor above is deliberately *outside* the
controlled quantity — it is the price of exact monitor verdicts and
scales with workload event rate, not with round count; the CI gate
(``benchmarks/check_tracing_overhead.py``) measures both separately.

Sampling is strictly observational: costs are bit-identical with and
without it (gated in CI), and attaching a sampler never mutates
simulation state.  The engine cooperates when it can: the round driver
both engines share (:class:`~repro.simulation.engine.RoundDriver`)
consults ``tracer.keep_round(k)`` once per round and runs the *plain*
round body for sampled-out rounds, shedding the span/phase indirection
itself — without this hook the sampler still works (records are
suppressed at emission) but only saves sink costs.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from repro.obs.tracing import Sink, TraceRecord, Tracer

#: Event names the live monitors (repro.obs.monitor) register handlers
#: for, plus ``violation``: these are never sampled away, so monitor
#: verdicts on a sampled stream equal verdicts on the full stream.
MONITOR_EVENT_NAMES = frozenset(
    {
        "arrival",
        "eligible",
        "ineligible",
        "timestamp",
        "wrap",
        "cache_in",
        "cache_out",
        "drop",
        "reconfig",
        "violation",
    }
)

#: Measured sink-emit seconds underestimate the true per-record cost:
#: the tracer also pays record construction and the engine pays the
#: instrumented round wrapper, neither visible to the sink timer.  On
#: the EXP-S quick cells those parts are ~3x the memory-sink emit time,
#: so the controller scales its price estimate by this factor; for
#: heavier sinks (JSONL) the factor overstates, which only makes the
#: controller shed sooner — the safe direction.
RECORD_COST_MULTIPLIER = 4.0


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
    """Seeded keep/drop policy plus the adaptive overhead governor.

    Parameters
    ----------
    target_overhead:
        Fraction of wall clock the *sampleable* tracing work may cost
        (default 5%).  Ignored when ``probability`` is fixed.
    probability:
        Fix the round keep probability (disables adaptation).  ``None``
        (default) adapts: the controller starts at ``min_probability``
        and only *raises* the rate while the measured overhead stays
        under target, so the budget is respected from round zero
        (starting high and shedding would overspend during the ramp
        down).  ``0.0`` keeps only the always-keep floor.
    seed:
        Seed of the per-round hash; two controllers with equal seed and
        equal (fixed) probability keep identical round sets.
    min_probability:
        Adaptive lower clamp — the controller never sheds below this,
        so a few detailed rounds always survive for timeline rendering.
    keep_events:
        Event names exempt from sampling (default:
        :data:`MONITOR_EVENT_NAMES`).
    adjust_every:
        Rounds between governor adjustments.
    """

    __slots__ = (
        "target_overhead",
        "probability",
        "adaptive",
        "seed",
        "min_probability",
        "keep_events",
        "adjust_every",
        "calibration_stride",
        "rounds_seen",
        "rounds_kept",
        "emitted",
        "suppressed",
        "_threshold",
        "_round",
        "_round_keep",
        "_started",
        "_emit_seconds",
        "_emit_timed",
        "_emit_count",
        "_next_adjust",
        "overhead_estimate",
    )

    def __init__(
        self,
        *,
        target_overhead: float = 0.05,
        probability: float | None = None,
        seed: int = 0,
        min_probability: float = 1 / 64,
        keep_events: Iterable[str] = MONITOR_EVENT_NAMES,
        adjust_every: int = 64,
        calibration_stride: int = 16,
    ) -> None:
        if target_overhead <= 0:
            raise ValueError("target_overhead must be positive")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.target_overhead = target_overhead
        self.adaptive = probability is None
        self.seed = seed
        self.min_probability = min(max(min_probability, 0.0), 1.0)
        self.probability = (
            self.min_probability if probability is None else probability
        )
        self.keep_events = frozenset(keep_events)
        self.adjust_every = max(1, adjust_every)
        self.calibration_stride = max(1, calibration_stride)
        self.rounds_seen = 0
        self.rounds_kept = 0
        self.emitted = 0
        self.suppressed = 0
        self._threshold = round(self.probability * _P_SCALE)
        self._round: int | None = None
        self._round_keep = True
        self._started: float | None = None
        self._emit_seconds = 0.0
        self._emit_timed = 0
        self._emit_count = 0
        self._next_adjust = self.adjust_every
        self.overhead_estimate = 0.0

    # ------------------------------------------------------------- policy

    def keep_round(self, k: int) -> bool:
        """Decide (and cache) whether round ``k`` keeps full detail."""
        if k == self._round:
            return self._round_keep
        self._round = k
        self.rounds_seen += 1
        if self._started is None:
            self._started = time.perf_counter()
        if self.adaptive and self.rounds_seen >= self._next_adjust:
            self._adjust()
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

    # ----------------------------------------------------------- governor

    def time_this_emit(self) -> bool:
        """Strided calibration: time every Nth admitted emission."""
        self._emit_count += 1
        return self._emit_count % self.calibration_stride == 0

    def record_emit_seconds(self, seconds: float) -> None:
        self._emit_seconds += seconds
        self._emit_timed += 1

    def _adjust(self) -> None:
        self._next_adjust = self.rounds_seen + self.adjust_every
        if self._started is None or not self._emit_timed:
            return
        elapsed = time.perf_counter() - self._started
        if elapsed <= 0:
            return
        per_record = self._emit_seconds / self._emit_timed
        spent = per_record * RECORD_COST_MULTIPLIER * self._emit_count
        self.overhead_estimate = spent / elapsed
        if self.overhead_estimate <= 0:
            return
        # Walk the probability multiplicatively toward the target, at
        # most halving/doubling per step so one noisy window cannot
        # collapse or explode the rate.
        step = self.target_overhead / self.overhead_estimate
        step = min(2.0, max(0.5, step))
        self.probability = min(
            1.0, max(self.min_probability, self.probability * step)
        )
        self._threshold = round(self.probability * _P_SCALE)

    # -------------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        """JSON-ready sampling telemetry (surfaced by ``repro record``)."""
        offered = self.emitted + self.suppressed
        return {
            "adaptive": self.adaptive,
            "probability": round(self.probability, 6),
            "target_overhead": self.target_overhead,
            "overhead_estimate": round(self.overhead_estimate, 6),
            "rounds_seen": self.rounds_seen,
            "rounds_kept": self.rounds_kept,
            "records_emitted": self.emitted,
            "records_suppressed": self.suppressed,
            "sampled_fraction": (
                round(self.emitted / offered, 6) if offered else 1.0
            ),
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
            ctrl.suppressed += 1
            return
        ctrl.emitted += 1
        record = TraceRecord(self._seq, kind, name, round_index, data, self.worker)
        self._seq += 1
        if ctrl.time_this_emit():
            t0 = time.perf_counter()
            self.sink.emit(record)
            ctrl.record_emit_seconds(time.perf_counter() - t0)
        else:
            self.sink.emit(record)


class SamplingSink(Sink):
    """Sink-level sampling: wrap any inner sink with the same policy.

    For composition points that receive an already-built record stream —
    a :class:`~repro.obs.tracing.TeeSink` leg, or post-hoc downsampling
    of a recorded trace.  Emission-time savings
    are smaller than :class:`SamplingTracer` (records already exist),
    but the kept set is identical for equal controller settings.
    """

    def __init__(
        self,
        inner: Sink,
        *,
        controller: SamplingController | None = None,
        **controller_kwargs: Any,
    ) -> None:
        if controller is not None and controller_kwargs:
            raise ValueError(
                "pass either a controller or controller kwargs, not both"
            )
        self.inner = inner
        self.controller = controller or SamplingController(**controller_kwargs)
        self.is_null = inner.is_null

    def emit(self, record: TraceRecord) -> None:
        ctrl = self.controller
        if not ctrl.admits(record.kind, record.name, record.round_index):
            ctrl.suppressed += 1
            return
        ctrl.emitted += 1
        if ctrl.time_this_emit():
            t0 = time.perf_counter()
            self.inner.emit(record)
            ctrl.record_emit_seconds(time.perf_counter() - t0)
        else:
            self.inner.emit(record)

    def close(self) -> None:
        self.inner.close()


def sample_records(
    records: Iterable[TraceRecord],
    *,
    probability: float,
    seed: int = 0,
    keep_events: Iterable[str] = MONITOR_EVENT_NAMES,
) -> list[TraceRecord]:
    """Post-hoc: the sampled subset of an existing record stream.

    Pure function of its arguments — the same records, probability, and
    seed always select the same subset (the fixed-probability path of
    :class:`SamplingController`).
    """
    controller = SamplingController(
        probability=probability, seed=seed, keep_events=keep_events
    )
    return [
        record
        for record in records
        if controller.admits(record.kind, record.name, record.round_index)
    ]
