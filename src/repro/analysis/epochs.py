"""Epoch and super-epoch extraction (Sections 3.2 and 3.4).

* An **epoch** of color ℓ ends the moment ℓ becomes ineligible; a new one
  starts when the previous ends.  The last epoch of a color may be
  incomplete.  ``numEpochs(σ)`` counts all epochs, incomplete included.
* A **super-epoch** ends the moment at least ``2m`` colors have updated
  their timestamps since its start (``n = 8m`` resources, so ``2m = n/4``).
* A color is ***i*-active** when its timestamp updates during super-epoch
  ``i``; an epoch of an *i*-active color overlapping super-epoch ``i`` is
  an *i*-active epoch.  Epochs that are not *i*-active for any *complete*
  super-epoch are **special**; Lemma 3.16 bounds those by 3 per color.

Everything here is a pure function of a run's event records (its
``record="full"`` :class:`~repro.core.events.Trace`, or the same records
off the trace bus), read by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.events import TraceRecord


@dataclass(frozen=True)
class Epoch:
    """One eligibility cycle of a color.

    ``start`` is the round the epoch begins (0 or the end of the previous
    epoch); ``end`` is the round the color became ineligible, or ``None``
    for the trailing incomplete epoch.
    """

    color: int
    index: int
    start: int
    end: int | None

    @property
    def complete(self) -> bool:
        return self.end is not None

    def overlaps(self, start: int, end: int | None) -> bool:
        """Whether this epoch intersects the round interval [start, end]."""
        self_end = self.end if self.end is not None else float("inf")
        other_end = end if end is not None else float("inf")
        return self.start <= other_end and start <= self_end


@dataclass(frozen=True)
class SuperEpoch:
    """A maximal phase in which fewer than ``2m`` colors updated timestamps."""

    index: int
    start: int
    end: int | None  # round of the closing (2m-th) timestamp update
    active_colors: frozenset[int]

    @property
    def complete(self) -> bool:
        return self.end is not None


@dataclass
class EpochAnalysis:
    """All epoch/super-epoch structure extracted from one trace."""

    epochs_by_color: dict[int, list[Epoch]] = field(default_factory=dict)
    super_epochs: list[SuperEpoch] = field(default_factory=list)
    threshold: int = 0

    @property
    def num_epochs(self) -> int:
        """``numEpochs(σ)``: every epoch, incomplete included."""
        return sum(len(epochs) for epochs in self.epochs_by_color.values())

    def epochs_of(self, color: int) -> list[Epoch]:
        return self.epochs_by_color.get(color, [])

    def active_epochs(self, super_epoch: SuperEpoch) -> list[Epoch]:
        """The *i*-active epochs of ``super_epoch``."""
        out = []
        for color in super_epoch.active_colors:
            for epoch in self.epochs_of(color):
                if epoch.overlaps(super_epoch.start, super_epoch.end):
                    out.append(epoch)
        return out

    def special_epochs(self) -> list[Epoch]:
        """Epochs not *i*-active for any complete super-epoch."""
        nonspecial: set[tuple[int, int]] = set()
        for super_epoch in self.super_epochs:
            if not super_epoch.complete:
                continue
            for epoch in self.active_epochs(super_epoch):
                nonspecial.add((epoch.color, epoch.index))
        return [
            epoch
            for epochs in self.epochs_by_color.values()
            for epoch in epochs
            if (epoch.color, epoch.index) not in nonspecial
        ]


def super_epoch_threshold(num_resources: int) -> int:
    """The super-epoch closing count for ``num_resources`` resources.

    The paper parameterizes ΔLRU-EDF with ``n = 8m`` resources and closes
    a super-epoch after ``2m = n/4`` distinct timestamp updates; with the
    repo's ``capacity = n/2`` cache that is ``capacity / 2``, floored and
    clamped to at least 1 so tiny test instances still form super-epochs.
    Shared by the offline auditors and the live monitors so both sides
    always agree on the structure they are checking.
    """
    capacity = num_resources // 2
    return max(1, capacity // 2)


class EpochStreamBuilder:
    """Incremental epoch/super-epoch reconstruction from an event stream.

    The single source of truth for the Section 3.2/3.4 structure: the
    offline :func:`analyze_epochs` drives it from a finished ``Trace``
    and the live monitors (:mod:`repro.obs.monitor`) drive it record by
    record from the trace bus, so the two paths cannot drift — they run
    the same transitions in the same order.

    Feed it ``on_activity`` (arrival or eligibility of a color),
    ``on_ineligible`` (closes the color's current epoch), and
    ``on_timestamp`` (advances the super-epoch machinery; returns the
    :class:`SuperEpoch` it closed, if any).  :meth:`finish` materializes
    the full :class:`EpochAnalysis`; it is non-destructive, so a monitor
    can snapshot mid-stream.
    """

    def __init__(self, *, threshold: int) -> None:
        if threshold <= 0:
            raise ValueError("super-epoch threshold must be positive")
        self.threshold = threshold
        self._active: set[int] = set()
        self._closings: dict[int, list[int]] = {}
        self._complete_super_epochs: list[SuperEpoch] = []
        self._se_start = 0
        self._se_seen: set[int] = set()
        self._se_index = 0

    def on_activity(self, color: int) -> None:
        """An arrival or eligibility event: the color has epoch activity."""
        self._active.add(color)

    def on_ineligible(self, color: int, round_index: int) -> None:
        """The color became ineligible: close its current epoch."""
        self._active.add(color)
        self._closings.setdefault(color, []).append(round_index)

    def on_timestamp(self, color: int, round_index: int) -> SuperEpoch | None:
        """A timestamp update; returns the super-epoch it closed, if any."""
        seen = self._se_seen
        seen.add(color)
        if len(seen) >= self.threshold:
            closed = SuperEpoch(
                self._se_index, self._se_start, round_index, frozenset(seen)
            )
            self._complete_super_epochs.append(closed)
            self._se_index += 1
            self._se_start = round_index
            self._se_seen = set()
            return closed
        return None

    def epochs_closed(self, color: int) -> int:
        """Complete epochs of ``color`` so far (live-monitor hook)."""
        return len(self._closings.get(color, []))

    @property
    def num_epochs(self) -> int:
        """``numEpochs(σ)`` so far: every active color's closed epochs
        plus its trailing incomplete one."""
        return len(self._active) + sum(
            len(ends) for ends in self._closings.values()
        )

    def finish(self) -> EpochAnalysis:
        """Materialize the analysis seen so far (non-destructive)."""
        analysis = EpochAnalysis(threshold=self.threshold)
        for color in sorted(self._active):
            epochs: list[Epoch] = []
            start = 0
            for index, end in enumerate(self._closings.get(color, [])):
                epochs.append(Epoch(color, index, start, end))
                start = end
            epochs.append(Epoch(color, len(epochs), start, None))
            analysis.epochs_by_color[color] = epochs
        analysis.super_epochs = list(self._complete_super_epochs)
        analysis.super_epochs.append(
            SuperEpoch(self._se_index, self._se_start, None, frozenset(self._se_seen))
        )
        return analysis


def analyze_epochs(
    trace: Iterable[TraceRecord], *, threshold: int
) -> EpochAnalysis:
    """Extract epochs and super-epochs from a batched-engine trace.

    ``threshold`` is the super-epoch closing count (``2m = n/4`` for the
    paper's parameterization of ΔLRU-EDF).  A thin driver over
    :class:`EpochStreamBuilder` — the live monitors run the same builder
    off the trace bus, so online and offline verdicts agree by
    construction.
    """
    builder = EpochStreamBuilder(threshold=threshold)
    for record in trace:
        name = record.name
        if name == "arrival" or name == "eligible":
            builder.on_activity(record.data["color"])
        elif name == "ineligible":
            builder.on_ineligible(record.data["color"], record.round_index)
        elif name == "timestamp":
            builder.on_timestamp(record.data["color"], record.round_index)
    return builder.finish()


def annotate_epochs(analysis: EpochAnalysis, tracer) -> int:
    """Write an analysis' epoch structure onto the trace bus.

    Emits one ``epoch`` annotation per extracted epoch — anchored at the
    round the epoch closed (its start round for the trailing incomplete
    epoch) — and one ``super_epoch`` annotation per super-epoch, so a
    rendered timeline (``repro trace``) shows the Section 3.2 epoch
    boundaries inline with the engine's own events.  Returns the number
    of annotations emitted; a ``None`` or disabled tracer emits nothing.
    """
    if tracer is None or not getattr(tracer, "enabled", True):
        return 0
    count = 0
    for color in sorted(analysis.epochs_by_color):
        for epoch in analysis.epochs_by_color[color]:
            tracer.annotation(
                "epoch",
                epoch.end if epoch.end is not None else epoch.start,
                color=color,
                index=epoch.index,
                start=epoch.start,
                complete=epoch.complete,
            )
            count += 1
    for super_epoch in analysis.super_epochs:
        tracer.annotation(
            "super_epoch",
            super_epoch.end if super_epoch.end is not None else super_epoch.start,
            index=super_epoch.index,
            start=super_epoch.start,
            complete=super_epoch.complete,
            active_colors=sorted(super_epoch.active_colors),
        )
        count += 1
    return count
