"""Problem instances in the ``[reconfig | drop | delay | batch]`` notation.

An :class:`Instance` bundles a :class:`ProblemSpec` (the cost parameters,
per-color delay bounds, and batch discipline) with a
:class:`RequestSequence` (the jobs).  Construction validates that the
sequence actually conforms to the declared batch mode:

* ``GENERAL``      — ``[Δ | 1 | D_ℓ | 1]``: arbitrary arrival rounds.
* ``BATCHED``      — ``[Δ | 1 | D_ℓ | D_ℓ]``: color-ℓ jobs arrive only at
  integral multiples of ``D_ℓ``.
* ``RATE_LIMITED`` — batched and additionally at most ``D_ℓ`` color-ℓ jobs
  per arrival round.

A batched engine reads only per-boundary counts (:attr:`RequestSequence.
arrival_counts`).  :class:`CountSequence` is a batched sequence made of
nothing else: streaming segments build one from admitted counts without
minting a job object.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.cost import CostModel
from repro.core.job import Job
from repro.core.rounds import is_multiple, is_power_of_two

#: The fields of :class:`Job`'s dataclass order, least significant first.
#: One stable sort per field yields that order from C-level keys without
#: building a key tuple per job (which costs time and peak memory).
_JOB_ORDER_KEYS = tuple(
    attrgetter(name) for name in ("jid", "delay_bound", "color", "arrival")
)
_ARRIVAL = _JOB_ORDER_KEYS[-1]
_COLOR = _JOB_ORDER_KEYS[-2]


class BatchMode(enum.Enum):
    """The ``batch`` field of the ``[· | · | · | batch]`` notation."""

    GENERAL = "general"
    BATCHED = "batched"
    RATE_LIMITED = "rate_limited"

    @property
    def is_batched(self) -> bool:
        return self is not BatchMode.GENERAL


@dataclass(frozen=True)
class ProblemSpec:
    """Static problem parameters.

    Attributes
    ----------
    delay_bounds:
        Mapping color -> delay bound ``D_ℓ``.  Every job color in the
        instance must appear here with a matching bound.
    cost:
        The ``Δ`` / drop-cost pair.
    batch_mode:
        Declared batch discipline; validated against the sequence.
    require_power_of_two:
        When true (the default for the Section 3/4 problems) every delay
        bound must be a power of two.
    """

    delay_bounds: Mapping[int, int]
    cost: CostModel
    batch_mode: BatchMode = BatchMode.GENERAL
    require_power_of_two: bool = False

    def __post_init__(self) -> None:
        if not self.delay_bounds:
            raise ValueError("spec must define at least one color")
        for color, bound in self.delay_bounds.items():
            if color < 0:
                raise ValueError(f"colors must be nonnegative, got {color}")
            if bound <= 0:
                raise ValueError(
                    f"delay bound for color {color} must be positive, got {bound}"
                )
            if self.require_power_of_two and not is_power_of_two(bound):
                raise ValueError(
                    f"delay bound for color {color} must be a power of two, "
                    f"got {bound}"
                )
        # Freeze the mapping so the spec is hashable-by-value in practice.
        object.__setattr__(self, "delay_bounds", dict(self.delay_bounds))

    @property
    def reconfig_cost(self) -> int:
        """``Δ``, the per-resource reconfiguration cost."""
        return self.cost.reconfig_cost

    @property
    def colors(self) -> tuple[int, ...]:
        """All declared colors in ascending (consistent) order."""
        return tuple(sorted(self.delay_bounds))

    def delay_bound(self, color: int) -> int:
        try:
            return self.delay_bounds[color]
        except KeyError:
            raise KeyError(f"color {color} is not declared in the spec") from None

    def with_batch_mode(self, mode: BatchMode) -> "ProblemSpec":
        return ProblemSpec(
            self.delay_bounds, self.cost, mode, self.require_power_of_two
        )

    def with_delay_bounds(self, bounds: Mapping[int, int]) -> "ProblemSpec":
        return ProblemSpec(
            bounds, self.cost, self.batch_mode, self.require_power_of_two
        )


class RequestSequence:
    """An ordered multiset of jobs, indexable by arrival round.

    The *i*-th request of the paper is the (possibly empty) set of jobs
    arriving in round *i*.  The horizon is the number of rounds the
    simulation must run; it always extends past the last deadline so that
    every job is either executed or dropped by the end of a run.
    """

    def __init__(self, jobs: Iterable[Job], horizon: int | None = None) -> None:
        ordered = list(jobs)
        for key in _JOB_ORDER_KEYS:
            ordered.sort(key=key)
        self._jobs: tuple[Job, ...] = tuple(ordered)
        ids = [job.jid for job in self._jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids within a request sequence must be unique")
        self._by_round: dict[int, list[Job]] = {
            arrival: list(group)
            for arrival, group in groupby(self._jobs, key=_ARRIVAL)
        }
        self._counts: dict[int, dict[int, int]] | None = None
        self._rounds: tuple[int, ...] | None = None
        self._deadlines: dict[int, list[int]] | None = None
        last_deadline = max((job.deadline for job in self._jobs), default=0)
        # The drop phase of round `last_deadline` is the final event that can
        # touch a job, so the minimal safe horizon is last_deadline + 1.
        min_horizon = last_deadline + 1 if self._jobs else 1
        self._horizon = min_horizon if horizon is None else horizon
        if self._horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self._horizon}")
        if self._horizon < min_horizon:
            raise ValueError(
                f"horizon {self._horizon} ends before the last deadline; "
                f"need at least {min_horizon}"
            )
        if any(job.arrival >= self._horizon for job in self._jobs):
            raise ValueError(
                "jobs must arrive within the horizon (arrival < horizon)"
            )

    @property
    def jobs(self) -> tuple[Job, ...]:
        return self._jobs

    @property
    def horizon(self) -> int:
        """Number of rounds to simulate (rounds ``0 .. horizon - 1``)."""
        return self._horizon

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def arrivals(self, round_index: int) -> Sequence[Job]:
        """Jobs arriving in ``round_index`` (the round's request).

        Contract: ``round_index`` must lie inside the materialized
        horizon, ``0 <= round_index < horizon``.  Out-of-range rounds
        raise :class:`IndexError` rather than silently returning an
        empty batch — a caller iterating past the horizon is reading
        rounds this sequence never materialized (the streaming layer is
        the API for unbounded runs), and the silent ``()`` used to turn
        that bug into quietly-wrong costs.  Streaming adapters preserve
        this contract (:class:`repro.streaming.sources.InstanceSource`).
        """
        if round_index < 0 or round_index >= self._horizon:
            raise IndexError(
                f"round {round_index} is outside the materialized horizon "
                f"[0, {self._horizon}); the request sequence has no such round"
            )
        return self._by_round.get(round_index, ())

    def arrival_rounds(self) -> tuple[int, ...]:
        """Rounds with at least one arrival, ascending (derived once)."""
        if self._rounds is None:
            self._rounds = tuple(sorted(self._by_round))
        return self._rounds

    @property
    def arrival_counts(self) -> dict[int, dict[int, int]]:
        """``{round: {color: count}}`` over the arrival rounds, ascending.

        Derived on first use and kept (the sequence is immutable), so
        every engine run over one instance shares one derivation.
        Callers must not mutate the result.
        """
        if self._counts is None:
            self._counts = {
                arrival: Counter(map(_COLOR, jobs))
                for arrival, jobs in self._by_round.items()
            }
        return self._counts

    @property
    def deadline_calendar(self) -> dict[int, list[int]]:
        """``{round: [colors]}``: the colors with a job deadline in that
        round, each list ascending, over the deadlines before the horizon
        (no round of a run reaches the others).

        Derived on first use and kept, like :attr:`arrival_counts`, so
        every general-engine run over one instance shares one
        derivation.  Callers must not mutate the result.
        """
        if self._deadlines is None:
            calendar: dict[int, list[int]] = {}
            horizon = self._horizon
            for job in self._jobs:
                if job.deadline >= horizon:
                    continue
                bucket = calendar.get(job.deadline)
                if bucket is None:
                    calendar[job.deadline] = [job.color]
                elif job.color not in bucket:
                    bucket.append(job.color)
            for bucket in calendar.values():
                bucket.sort()
            self._deadlines = calendar
        return self._deadlines

    @property
    def colors(self) -> tuple[int, ...]:
        """Distinct job colors, ascending."""
        return tuple(sorted({job.color for job in self._jobs}))

    def count_by_color(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for job in self._jobs:
            counts[job.color] = counts.get(job.color, 0) + 1
        return counts

    def restricted_to(self, colors: Iterable[int]) -> "RequestSequence":
        """Subsequence containing only jobs of the given colors."""
        keep = set(colors)
        return RequestSequence(
            [job for job in self._jobs if job.color in keep], self._horizon
        )

    def with_horizon(self, horizon: int) -> "RequestSequence":
        return RequestSequence(self._jobs, horizon)


class CountSequence:
    """A batched request sequence held as per-boundary counts only.

    ``counts`` maps an arrival round to ``{color: count}``, the shape of
    :attr:`RequestSequence.arrival_counts`.  There are no job objects,
    so only ``record="costs"`` engines run on it.  Streaming segments
    are the use: they are windows of a longer run, so deadlines may
    pass the horizon (their drop rounds belong to the next segment).
    :class:`Instance` validates the counts against its spec.  Callers
    must not mutate ``counts`` afterwards.
    """

    def __init__(
        self, counts: Mapping[int, Mapping[int, int]], horizon: int
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        self._counts = counts
        self._horizon = horizon

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def arrival_counts(self) -> Mapping[int, Mapping[int, int]]:
        return self._counts

    def __len__(self) -> int:
        return sum(sum(batch.values()) for batch in self._counts.values())

    @property
    def colors(self) -> tuple[int, ...]:
        """Colors with at least one job, ascending."""
        return tuple(
            sorted(
                {c for batch in self._counts.values() for c, n in batch.items() if n}
            )
        )


def is_count(value) -> bool:
    """Whether ``value`` can count jobs: a nonnegative ``int``, not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class Instance:
    """A validated (spec, sequence) pair."""

    spec: ProblemSpec
    sequence: RequestSequence | CountSequence
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.sequence, CountSequence):
            self._validate_counts()
            return
        declared = set(self.spec.delay_bounds)
        for job in self.sequence:
            if job.color not in declared:
                raise ValueError(
                    f"job {job.jid} has undeclared color {job.color}"
                )
            bound = self.spec.delay_bounds[job.color]
            if job.delay_bound != bound:
                raise ValueError(
                    f"job {job.jid} of color {job.color} has delay bound "
                    f"{job.delay_bound}, spec declares {bound}"
                )
        self._validate_batch_mode()

    def _validate_batch_mode(self) -> None:
        mode = self.spec.batch_mode
        if mode is BatchMode.GENERAL:
            return
        for job in self.sequence:
            if not is_multiple(job.arrival, job.delay_bound):
                raise ValueError(
                    f"batched instance: job {job.jid} of color {job.color} "
                    f"arrives at round {job.arrival}, not a multiple of "
                    f"{job.delay_bound}"
                )
        if mode is BatchMode.RATE_LIMITED:
            self._check_rate_limit(self.sequence.arrival_counts)

    def _check_rate_limit(self, counts) -> None:
        bounds = self.spec.delay_bounds
        for arrival, batch in counts.items():
            for color, count in batch.items():
                if count > bounds[color]:
                    raise ValueError(
                        f"rate-limited instance: {count} color-{color} jobs "
                        f"arrive at round {arrival}, exceeding D_ℓ = "
                        f"{bounds[color]}"
                    )

    def _validate_counts(self) -> None:
        """The job checks above, restated for a :class:`CountSequence`."""
        mode = self.spec.batch_mode
        if not mode.is_batched:
            raise ValueError("a count sequence needs a batched spec")
        bounds = self.spec.delay_bounds
        counts = self.sequence.arrival_counts
        horizon = self.sequence.horizon
        for arrival, batch in counts.items():
            if not 0 <= arrival < horizon:
                raise ValueError(
                    "jobs must arrive within the horizon (arrival < horizon)"
                )
            for color, count in batch.items():
                if color not in bounds:
                    raise ValueError(
                        f"batch at round {arrival} has undeclared color {color}"
                    )
                if not is_count(count):
                    raise ValueError(
                        f"batch of color {color} at round {arrival} must "
                        f"count a nonnegative integer of jobs, got {count!r}"
                    )
                if not is_multiple(arrival, bounds[color]):
                    raise ValueError(
                        f"batched instance: {count} color-{color} jobs "
                        f"arrive at round {arrival}, not a multiple of "
                        f"{bounds[color]}"
                    )
        if mode is BatchMode.RATE_LIMITED:
            self._check_rate_limit(counts)

    @property
    def horizon(self) -> int:
        return self.sequence.horizon

    @property
    def cost_model(self) -> CostModel:
        return self.spec.cost

    @property
    def reconfig_cost(self) -> int:
        return self.spec.reconfig_cost

    def describe(self) -> str:
        """Short human-readable description for reports."""
        mode = {
            BatchMode.GENERAL: "1",
            BatchMode.BATCHED: "D_l",
            BatchMode.RATE_LIMITED: "D_l (rate-limited)",
        }[self.spec.batch_mode]
        label = self.name or "instance"
        return (
            f"{label}: [Δ={self.spec.reconfig_cost} | {self.spec.cost.drop_cost} "
            f"| D_l | {mode}] with {len(self.sequence)} jobs, "
            f"{len(self.sequence.colors)} colors, horizon {self.horizon}"
        )


def make_instance(
    jobs: Iterable[Job],
    delay_bounds: Mapping[int, int],
    reconfig_cost: int,
    *,
    batch_mode: BatchMode = BatchMode.GENERAL,
    horizon: int | None = None,
    require_power_of_two: bool = False,
    name: str = "",
) -> Instance:
    """Convenience constructor used throughout tests and workloads."""
    spec = ProblemSpec(
        delay_bounds,
        CostModel(reconfig_cost),
        batch_mode,
        require_power_of_two,
    )
    return Instance(spec, RequestSequence(jobs, horizon), name)
