"""Unit jobs and the color domain.

The paper's jobs are *unit* jobs: executing one occupies one resource for
one execution phase.  A job is characterized by a non-black color, a
nonnegative integer arrival round, and a positive integer delay bound; its
deadline is ``arrival + delay_bound`` (Section 2).  A job may be executed in
the execution phase of any round ``r`` with ``arrival <= r < deadline``;
in the drop phase of round ``deadline`` it is dropped at unit cost.

Colors are plain nonnegative integers.  ``BLACK`` is the reserved sentinel
color that every resource starts configured to; no job may be black.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Iterator

#: Sentinel color of a freshly provisioned (never reconfigured) resource.
#: Jobs must never carry this color.
BLACK: int = -1


@dataclass(frozen=True, slots=True, order=True)
class Job:
    """A unit job.

    Ordering is lexicographic on ``(arrival, color, delay_bound, jid)``,
    which gives a stable, deterministic order for jobs arriving in the
    same round.

    Attributes
    ----------
    arrival:
        Round in which the job arrives (arrival phase of that round).
    color:
        Nonnegative integer color; the job can only run on a resource
        configured to this color.
    delay_bound:
        Positive integer ``D``; the job's deadline is ``arrival + D``.
    jid:
        Unique identifier within a request sequence.  Used to match
        executions to jobs and to keep ordering deterministic.
    """

    arrival: int
    color: int
    delay_bound: int
    jid: int

    def __post_init__(self) -> None:
        if self.color == BLACK:
            raise ValueError("jobs cannot be colored BLACK")
        if self.color < 0:
            raise ValueError(f"color must be nonnegative, got {self.color}")
        if self.arrival < 0:
            raise ValueError(f"arrival must be nonnegative, got {self.arrival}")
        if self.delay_bound <= 0:
            raise ValueError(
                f"delay bound must be a positive integer, got {self.delay_bound}"
            )

    @property
    def deadline(self) -> int:
        """First round in which the job is no longer executable.

        The job may be executed in rounds ``arrival .. deadline - 1``
        inclusive and is dropped in the drop phase of round ``deadline``.
        """
        return self.arrival + self.delay_bound

    def executable_in(self, round_index: int) -> bool:
        """Whether the job may run in the execution phase of ``round_index``."""
        return self.arrival <= round_index < self.deadline

    def with_color(self, color: int) -> "Job":
        """Copy of this job recolored to ``color`` (used by reductions)."""
        return Job(self.arrival, color, self.delay_bound, self.jid)

    def with_arrival(self, arrival: int, delay_bound: int | None = None) -> "Job":
        """Copy of this job re-timed (used by the VarBatch reduction)."""
        return Job(
            arrival,
            self.color,
            self.delay_bound if delay_bound is None else delay_bound,
            self.jid,
        )


class JobFactory:
    """Mints jobs with sequentially unique ids.

    Workload generators use one factory per request sequence so that job
    ids are dense, deterministic, and collision-free.
    """

    def __init__(self, start: int = 0) -> None:
        self._ids = count(start)

    def make(self, arrival: int, color: int, delay_bound: int) -> Job:
        return Job(arrival, color, delay_bound, next(self._ids))

    def batch(self, arrival: int, color: int, delay_bound: int, n: int) -> list[Job]:
        """Mint ``n`` identical-shape jobs arriving together."""
        if n < 0:
            raise ValueError(f"batch size must be nonnegative, got {n}")
        return [self.make(arrival, color, delay_bound) for _ in range(n)]


def iter_colors(jobs: list[Job]) -> Iterator[int]:
    """Distinct colors appearing in ``jobs``, in ascending order."""
    return iter(sorted({job.color for job in jobs}))
