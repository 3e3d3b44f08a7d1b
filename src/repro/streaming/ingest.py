"""Bounded ingestion: per-color queue caps with tail-drop admission.

Sits between an :class:`~repro.streaming.sources.ArrivalSource` and the
engine.  In batched mode a color's pending queue empties at every one of
its boundaries (the drop phase clears it before the batch lands), so a
per-color cap on the *admitted batch* is exactly a cap on that color's
pending-queue depth — which is what makes the streaming memory bound
"O(pending)" a number the operator chooses instead of one the workload
chooses.

Rejected jobs never reach the engine: they are refused at the door and
counted, not dropped at a deadline — no drop cost is charged, mirroring
the cache-queue admission experiments (icarus) whose
``PERCENTAGE_OF_REJECTION`` / average-queue-size reporting this layer's
metrics reproduce.  Admission works on counts: each color's offered
count is capped at its queue cap, ``min(count, cap)``, and the excess is
rejected.  It is deterministic, so checkpointed and uninterrupted runs
admit identical counts.

Metrics (when a :class:`repro.obs.metrics.MetricsRegistry` is attached):

* ``stream.offered`` / ``stream.admitted`` / ``stream.rejected`` —
  job counters across the whole session.
* ``stream.rejected.color.N`` — per-color rejection counters.
* ``stream.queue_depth`` — histogram of post-admission queue depths
  (one observation per color with at least one admitted job).
* ``stream.rejection_rate`` — gauge, rejected / offered so far.

All of these flow to the PR-8 ops service's ``/metrics`` endpoint when
the session's registry is the one the service serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.instance import is_count


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-color queue caps; ``None`` means unbounded.

    ``queue_cap`` is the default cap for every color; ``caps`` overrides
    it per color.  Caps bound the admitted batch (= the pending queue
    depth, see the module docstring) — a cap of 0 rejects the color
    outright.  Every cap is an ``int`` ≥ 0 (not a ``bool``), checked
    here rather than at the first admission.
    """

    queue_cap: int | None = None
    caps: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.queue_cap is not None and not is_count(self.queue_cap):
            raise ValueError(
                "queue_cap must be a nonnegative integer or None, got "
                f"{self.queue_cap!r}"
            )
        for color, cap in self.caps.items():
            if not is_count(cap):
                raise ValueError(
                    f"cap for color {color} must be a nonnegative integer, "
                    f"got {cap!r}"
                )
        object.__setattr__(self, "caps", dict(self.caps))

    def cap_for(self, color: int) -> int | None:
        cap = self.caps.get(color)
        return self.queue_cap if cap is None else cap

    def to_dict(self) -> dict:
        return {
            "queue_cap": self.queue_cap,
            "caps": {str(c): cap for c, cap in sorted(self.caps.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdmissionPolicy":
        return cls(
            queue_cap=data.get("queue_cap"),
            caps={int(c): cap for c, cap in data.get("caps", {}).items()},
        )


class StreamIngest:
    """Admission control + rejection accounting for one session."""

    def __init__(self, policy: AdmissionPolicy | None = None, registry=None) -> None:
        self.policy = policy or AdmissionPolicy()
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.rejected_by_color: dict[int, int] = {}
        self._registry = registry
        if registry is not None:
            self._offered_ctr = registry.counter("stream.offered")
            self._admitted_ctr = registry.counter("stream.admitted")
            self._rejected_ctr = registry.counter("stream.rejected")
            self._depth_hist = registry.histogram("stream.queue_depth")
            self._rate_gauge = registry.gauge("stream.rejection_rate")
            self._rejected_color_ctrs: dict[int, object] = {}

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered jobs refused so far (0.0 before traffic)."""
        if self.offered == 0:
            return 0.0
        return self.rejected / self.offered

    def admit(self, round_index: int, counts: Mapping[int, int]) -> dict[int, int]:
        """Cap one round's ``{color: count}`` batch; return the admitted
        counts (colors with none admitted left out)."""
        offered = sum(counts.values())
        if not offered:
            return {}
        cap_for = self.policy.cap_for
        registry = self._registry
        admitted: dict[int, int] = {}
        for color, count in counts.items():
            cap = cap_for(color)
            if cap is not None and count > cap:
                refused = count - cap
                count = cap
                self.rejected_by_color[color] = (
                    self.rejected_by_color.get(color, 0) + refused
                )
                if registry is not None:
                    ctr = self._rejected_color_ctrs.get(color)
                    if ctr is None:
                        ctr = registry.counter(f"stream.rejected.color.{color}")
                        self._rejected_color_ctrs[color] = ctr
                    ctr.inc(refused)
            if count:
                admitted[color] = count
        total = sum(admitted.values())
        rejected = offered - total
        self.offered += offered
        self.admitted += total
        self.rejected += rejected
        if registry is not None:
            self._offered_ctr.inc(offered)
            self._admitted_ctr.inc(total)
            if rejected:
                self._rejected_ctr.inc(rejected)
            for depth in admitted.values():
                self._depth_hist.observe(depth)
            self._rate_gauge.set(self.rejection_rate)
        return admitted

    # -- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> dict:
        state = {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejected_by_color": {
                str(c): n for c, n in self.rejected_by_color.items()
            },
        }
        if self._registry is not None:
            # The queue-depth histogram only exists with a registry
            # attached; carry it so a resumed session's stream.* snapshot
            # matches the uninterrupted one cell for cell.
            hist = self._depth_hist
            state["queue_depth"] = {
                "buckets": list(hist.bounds),
                "counts": list(hist.counts),
                "count": hist.count,
                "sum": hist.total,
            }
        return state

    def load_state(self, state: dict) -> None:
        self.offered = state["offered"]
        self.admitted = state["admitted"]
        self.rejected = state["rejected"]
        self.rejected_by_color = {
            int(c): n for c, n in state["rejected_by_color"].items()
        }
        if self._registry is not None:
            self._reseed_metrics(state)

    def _reseed_metrics(self, state: dict) -> None:
        """Re-seed the ``stream.*`` instruments from restored counters.

        A fresh session's registry starts every instrument at zero, so
        without this a resumed session's ``/metrics`` exposition would
        diverge from an uninterrupted run's.  Counters advance by the
        delta to the restored value (idempotent under re-load), the
        rejection-rate gauge is recomputed, the lazily-created per-color
        rejection counters are materialized, and the queue-depth
        histogram is restored when the checkpoint carries one.
        """
        self._offered_ctr.inc(self.offered - self._offered_ctr.value)
        self._admitted_ctr.inc(self.admitted - self._admitted_ctr.value)
        self._rejected_ctr.inc(self.rejected - self._rejected_ctr.value)
        self._rate_gauge.set(self.rejection_rate)
        for color, count in sorted(self.rejected_by_color.items()):
            ctr = self._rejected_color_ctrs.get(color)
            if ctr is None:
                ctr = self._registry.counter(f"stream.rejected.color.{color}")
                self._rejected_color_ctrs[color] = ctr
            ctr.inc(count - ctr.value)
        depth = state.get("queue_depth")
        if depth is not None and tuple(depth["buckets"]) == self._depth_hist.bounds:
            hist = self._depth_hist
            hist.counts = [int(c) for c in depth["counts"]]
            hist.count = int(depth["count"])
            hist.total = float(depth["sum"])
