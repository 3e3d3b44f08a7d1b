"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Complements the trace bus (:mod:`repro.obs.tracing`): traces answer
"what happened, in order"; metrics answer "how much, how often, how
distributed" without retaining per-event records.  The registry is
dependency-free and cheap enough to leave attached to production runs.

Naming conventions (see ``docs/observability.md``)
--------------------------------------------------
Metric names are dotted ``<subsystem>.<quantity>`` paths:

* ``engine.*`` — the simulation engines (``engine.drops``,
  ``engine.queue_depth``, ``engine.backlog_age``,
  ``engine.reconfig_interarrival``, ``engine.order_cache_hits``, ...)
* ``adversary.*`` — the adversary search (``adversary.score_cache_hits``)
* ``offline.*`` — the exact offline solver (``offline.states_expanded``,
  ``offline.candidates_pruned``)
* ``runtime.*`` — the parallel runtime

Histograms use *fixed* bucket boundaries chosen at registration time
(power-of-two ladders by default), so snapshots from different runs and
different workers merge by element-wise addition — no rebinning, no
quantile sketches.  Snapshots are plain dicts: they cross process
boundaries, fold into a parent registry via
:meth:`MetricsRegistry.merge_snapshot`, and feed the run registry and
the Prometheus exporter.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

#: Default histogram bucket ladder: powers of two up to 4096.
POW2_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class Counter:
    """Monotone event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-observed value of a quantity."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds.

    ``buckets`` are the finite upper bounds in increasing order; one
    implicit overflow bucket catches everything larger.  An observation
    ``v`` lands in the first bucket with ``bound >= v``.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, buckets: Sequence[float] = POW2_BUCKETS) -> None:
        bounds = tuple(buckets)
        if not bounds or any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0

    def observe(self, value: float, n: int = 1) -> None:
        self.counts[bisect_left(self.bounds, value)] += n
        self.count += n
        self.total += value * n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Element-wise merge (requires identical bucket boundaries).

        Raises instead of silently mis-binning: mismatched bounds would
        add apples to oranges, and a counts vector of the wrong length
        (e.g. from a hand-built or corrupted snapshot) would otherwise
        fold in only a prefix of the cells.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: bucket bounds differ"
            )
        if len(other.counts) != len(self.counts):
            raise ValueError(
                f"cannot merge histogram {other.name!r}: expected "
                f"{len(self.counts)} cells (including overflow), got "
                f"{len(other.counts)}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.total += other.total


class MetricsRegistry:
    """Create-or-get registry of named instruments.

    Re-registering a name returns the existing instrument (with a type
    check), so independent subsystems can share a registry without
    coordinating creation order.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, factory, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory()
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = POW2_BUCKETS
    ) -> Histogram:
        histogram = self._get(name, lambda: Histogram(name, buckets), Histogram)
        if histogram.bounds != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return histogram

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def instruments(self) -> list[tuple[str, Counter | Gauge | Histogram]]:
        """Every ``(name, instrument)`` pair, sorted by name (live objects:
        callers read their values, never mutate them)."""
        return sorted(self._instruments.items())

    def snapshot(self, *, prefix: str | None = None) -> dict[str, Any]:
        """Freeze every instrument into a JSON-ready dict.

        ``prefix`` restricts the snapshot to instruments whose dotted
        name starts with it (e.g. ``prefix="stream."`` for just the
        ingestion metrics of a long-lived session) — the filtered result
        keeps the same shape and still merges cleanly.

        The shape is stable::

            {"counters": {name: int},
             "gauges": {name: float},
             "histograms": {name: {"buckets": [...], "counts": [...],
                                   "count": int, "sum": float, "mean": float}}}
        """
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, Any]] = {}
        for name, instrument in self.instruments():
            if prefix is not None and not name.startswith(prefix):
                continue
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                if instrument.value is not None:
                    gauges[name] = instrument.value
            else:
                histograms[name] = {
                    "buckets": list(instrument.bounds),
                    "counts": list(instrument.counts),
                    "count": instrument.count,
                    "sum": instrument.total,
                    "mean": instrument.mean,
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters and histogram cells add; gauges take the incoming value
        (last write wins, matching gauge semantics).

        The merge is validate-then-apply: every incoming instrument is
        checked (types, bucket bounds, cell counts) before anything is
        folded in, so a corrupt or incompatible worker snapshot raises
        without leaving this registry half-merged.
        """
        # Validation pass: reconstruct every incoming histogram and dry-
        # run the type/bounds checks against the existing instruments.
        incoming_histograms: list[tuple[Histogram, Histogram]] = []
        for name, data in snapshot.get("histograms", {}).items():
            bounds = tuple(data["buckets"])
            incoming = Histogram(name, bounds)
            if len(data["counts"]) != len(incoming.counts):
                raise ValueError(
                    f"cannot merge histogram {name!r}: expected "
                    f"{len(incoming.counts)} cells (including overflow), "
                    f"got {len(data['counts'])}"
                )
            incoming.counts = [int(c) for c in data["counts"]]
            incoming.count = int(data["count"])
            incoming.total = float(data["sum"])
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not Histogram"
                    )
                if existing.bounds != bounds:
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket bounds "
                        "differ"
                    )
            incoming_histograms.append((incoming, existing))
        counters = {
            name: int(value)
            for name, value in snapshot.get("counters", {}).items()
        }
        gauges = dict(snapshot.get("gauges", {}))
        for name in counters:
            existing = self._instruments.get(name)
            if existing is not None and not isinstance(existing, Counter):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not Counter"
                )
        for name in gauges:
            existing = self._instruments.get(name)
            if existing is not None and not isinstance(existing, Gauge):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not Gauge"
                )
        # Apply pass: nothing below can raise.
        for name, value in counters.items():
            self.counter(name).inc(value)
        for name, value in gauges.items():
            self.gauge(name).set(value)
        for incoming, existing in incoming_histograms:
            if existing is None:
                existing = self.histogram(incoming.name, incoming.bounds)
            existing.merge(incoming)


def render_metrics(snapshot: Mapping[str, Any], *, width: int = 32) -> str:
    """Fixed-width text summary of a registry snapshot (``repro stats``)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters")
        pad = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name.ljust(pad)}  {counters[name]}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges")
        pad = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name.ljust(pad)}  {gauges[name]:.6g}")
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        total_count = data.get("count", 0)
        mean = data.get("mean")
        if mean is None:
            # Older/hand-built payloads may omit the derived mean.
            mean = data.get("sum", 0.0) / total_count if total_count else 0.0
        lines.append(
            f"histogram {name}  count={total_count}  mean={mean:.3f}"
        )
        counts = data.get("counts", [])
        labels = [f"<={bound:g}" for bound in data.get("buckets", [])] + ["inf"]
        peak = max(counts, default=0) or 1
        pad = max(len(label) for label in labels)
        for label, count in zip(labels, counts):
            if count == 0:
                continue
            bar = "#" * max(1, round(width * count / peak))
            lines.append(f"  {label.rjust(pad)}  {str(count).rjust(8)}  {bar}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def iter_metric_names(snapshot: Mapping[str, Any]) -> Iterable[str]:
    """All metric names present in a snapshot, sorted."""
    names = set(snapshot.get("counters", {}))
    names |= set(snapshot.get("gauges", {}))
    names |= set(snapshot.get("histograms", {}))
    return sorted(names)
