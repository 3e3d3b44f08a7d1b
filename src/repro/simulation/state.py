"""Per-color runtime state for the Section 3.1 protocol.

Each color ℓ carries a counter ``cnt``, a deadline ``dd``, an eligibility
flag, its pending batch, and the history of its counter wrapping events
(from which the ΔLRU timestamp of Section 3.1.1 is derived on demand).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.job import Job
from repro.core.rounds import prev_multiple


@dataclass(slots=True)
class ColorState:
    """Runtime state of one color inside the batched engine.

    Attributes
    ----------
    color, delay_bound:
        Identity and ``D_ℓ``.
    cnt:
        The Section 3.1 counter; wraps modulo ``Δ`` on arrival.
    dd:
        Current deadline; set to ``k + D_ℓ`` at every integral multiple
        ``k`` of ``D_ℓ`` during the arrival phase.
    eligible:
        Eligibility flag; set on a counter wrapping event, cleared in the
        drop phase when the color is eligible but not cached.
    pending / arrival:
        The pending batch: its count and arrival round.  Color ℓ's jobs
        arrive only at multiples of ``D_ℓ`` and the drop phase clears
        the queue at each of them, so it never holds two batches.
    jobs:
        Under ``record="full"`` only: the batch's jobs, whose last
        ``pending`` are still pending, so executions can name job ids.
    last_wrap / prev_wrap:
        Rounds of the two most recent counter wrapping events (wrapping
        rounds are integral multiples of ``D_ℓ``, so two suffice to answer
        any "latest wrap strictly before round k" query).
    last_timestamp:
        Cached value of the most recently emitted timestamp, used by the
        engine to detect timestamp *update events* (Section 3.4).
    """

    color: int
    delay_bound: int
    cnt: int = 0
    dd: int = 0
    eligible: bool = False
    pending: int = 0
    arrival: int = 0
    jobs: Sequence[Job] = ()
    last_wrap: int | None = None
    prev_wrap: int | None = None
    last_timestamp: int = 0

    @property
    def idle(self) -> bool:
        """A color is idle when it has no pending jobs (Section 3.1)."""
        return not self.pending

    def record_wrap(self, round_index: int) -> None:
        """Record a counter wrapping event at ``round_index``."""
        if self.last_wrap is not None and round_index < self.last_wrap:
            raise ValueError("wrapping events must be recorded in round order")
        if self.last_wrap != round_index:
            self.prev_wrap = self.last_wrap
            self.last_wrap = round_index

    def timestamp(self, now: int) -> int:
        """ΔLRU timestamp of this color as of round ``now`` (Section 3.1.1).

        Let ``k`` be the most recent integral multiple of ``D_ℓ`` at or
        before ``now``.  The timestamp is the latest round strictly before
        ``k`` carrying a counter wrapping event of this color, or 0 if no
        such round exists.
        """
        k = prev_multiple(now, self.delay_bound)
        if self.last_wrap is not None and self.last_wrap < k:
            return self.last_wrap
        if self.prev_wrap is not None and self.prev_wrap < k:
            return self.prev_wrap
        return 0

    def boundaries(self, horizon: int, start: int = 0) -> range:
        """Integral multiples of ``D_ℓ`` within ``[start, horizon)``.

        These are the only rounds the Section 3.1 protocol acts on this
        color — the sparse engine core's boundary calendar is exactly the
        union of these ranges over all colors.  ``start`` lets streaming
        segments build their calendar over a window instead of paying
        ``horizon / D_ℓ`` per segment from round 0.
        """
        d = self.delay_bound
        first = ((start + d - 1) // d) * d
        return range(first, horizon, d)

    def add_batch(self, arrival: int, count: int) -> None:
        """Make ``count`` jobs arriving in round ``arrival`` the pending
        batch; raises if jobs are still pending (two arrival rounds)."""
        if self.pending:
            raise ValueError(
                f"color {self.color}: a batch arriving in round {arrival} "
                f"lands on {self.pending} pending job(s) from round "
                f"{self.arrival}; a batched queue holds one arrival round"
            )
        self.pending = count
        self.arrival = arrival
