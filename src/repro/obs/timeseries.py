"""Metric time-series: ring-buffered history of a metrics registry.

The registry (:mod:`repro.obs.metrics`) answers "how much so far"; this
module answers "how did it get there".  A :class:`SeriesRecorder`
periodically *samples* a :class:`~repro.obs.metrics.MetricsRegistry` on
a deterministic, caller-supplied round clock (segment ends for a
streaming session, cell indices for a sweep, restart indices for the
adversary search) and appends one point per metric to a fixed-capacity
:class:`Series` ring.  On top of the raw values it derives, per counter:

* ``<name>.delta`` — increase since the previous sample;
* ``<name>.rate`` — delta divided by the rounds elapsed;
* ``<name>.ewma`` — exponentially weighted moving average of the rate,

and per gauge an ``.ewma`` of the value; histograms contribute
``<name>.count`` and ``<name>.mean`` series.  Everything is a pure
function of the (round, snapshot) sample sequence — no wall clock, no
randomness — so serial, parallel, and killed-and-resumed producers build
identical series, which is what makes alerting on them
(:mod:`repro.obs.alerts`) deterministic.

Memory stays O(capacity) forever: when a series ring is full, adjacent
points are *compacted* (merged pairwise, keeping first/last rounds and
min/max/sum/count aggregates), halving the point count and doubling the
effective sample stride.  A million-round stream sampled every segment
therefore keeps a bounded, progressively coarser history instead of
growing without bound or silently dropping the past.

Persistence is schema-tagged JSONL (``repro-series/v2``): one header
line with the recorder configuration, then one line per series — written
with :func:`write_series_jsonl`, read back with
:func:`read_series_jsonl`, evaluated post hoc with ``repro alerts
check``.  A point is a ``[round, value]`` pair while it is a single
sample and the seven-field list of :class:`SeriesPoint` once compacted;
``repro-series/v1`` files, whose points are all seven-field lists, are
still read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.core.inputs import InputError, malformed, read_jsonl
from repro.obs.metrics import Counter, Gauge

SERIES_SCHEMA = "repro-series/v2"

#: Earlier schemas :func:`read_series_jsonl` still reads.
_READABLE_SCHEMAS = (SERIES_SCHEMA, "repro-series/v1")

#: Default ring capacity per series; at one sample per 4096-round
#: segment this holds ~1M rounds before the first compaction.
DEFAULT_CAPACITY = 256

#: Default EWMA smoothing factor (weight of the newest sample).
DEFAULT_EWMA_ALPHA = 0.25


class SeriesPoint(NamedTuple):
    """One (possibly compacted) observation of a series.

    An uncompacted sample has ``start == end`` and ``count == 1`` (and
    ``last == min == max == total``); a compacted point covers the round
    window ``[start, end]`` and carries the aggregates of everything
    merged into it.  ``last`` is the value at ``end`` — the one alert
    evaluation reads.
    """

    start: int
    end: int
    count: int
    last: float
    min: float
    max: float
    total: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @classmethod
    def sample(cls, round_index: int, value: float) -> "SeriesPoint":
        return cls(round_index, round_index, 1, value, value, value, value)

    def merge(self, other: "SeriesPoint") -> "SeriesPoint":
        """Combine with the chronologically *later* point ``other``."""
        return SeriesPoint(
            self.start,
            other.end,
            self.count + other.count,
            other.last,
            min(self.min, other.min),
            max(self.max, other.max),
            self.total + other.total,
        )

    def to_list(self) -> list:
        """``[round, value]`` for a single sample, else all seven fields."""
        if self.count == 1:
            return [self.start, self.last]
        return list(self)

    @classmethod
    def from_list(cls, data: Sequence) -> "SeriesPoint":
        """Inverse of :meth:`to_list`; also reads a single sample written
        as seven fields (``repro-series/v1``), but only a consistent one,
        so the two-number form loses nothing."""
        if len(data) == 2:
            return cls.sample(int(data[0]), float(data[1]))
        start, end, count, last, low, high, total = data
        point = cls(
            int(start),
            int(end),
            int(count),
            float(last),
            float(low),
            float(high),
            float(total),
        )
        # Compared by repr, so -0.0 vs 0.0 counts as a disagreement and
        # a recorded NaN sample still agrees with itself.
        if point.count == 1 and (
            point.start != point.end or len(set(map(repr, point[3:]))) != 1
        ):
            raise ValueError(
                f"series point {data!r} has count 1 but is not a single "
                "sample (needs start == end and last == min == max == total)"
            )
        return point


class Series:
    """Fixed-capacity, compacting time series of one metric.

    Appends are strictly round-ordered (a stale append raises — the
    round clock is the determinism anchor).  When the ring reaches
    ``capacity``, adjacent points merge pairwise, so memory is
    O(capacity) regardless of how many samples arrive.
    """

    __slots__ = ("name", "capacity", "points", "compactions")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 2:
            raise ValueError("series capacity must be at least 2")
        self.name = name
        self.capacity = capacity
        self.points: list[SeriesPoint] = []
        self.compactions = 0

    def __len__(self) -> int:
        return len(self.points)

    def append(self, round_index: int, value: float) -> None:
        if self.points and round_index <= self.points[-1].end:
            raise ValueError(
                f"series {self.name!r}: sample round {round_index} is not "
                f"after the last recorded round {self.points[-1].end}"
            )
        if len(self.points) >= self.capacity:
            self._compact()
        self.points.append(SeriesPoint.sample(round_index, float(value)))

    def _compact(self) -> None:
        """Merge adjacent points pairwise (oldest first, deterministic)."""
        merged: list[SeriesPoint] = []
        points = self.points
        for index in range(0, len(points) - 1, 2):
            merged.append(points[index].merge(points[index + 1]))
        if len(points) % 2:
            merged.append(points[-1])
        self.points = merged
        self.compactions += 1

    # ------------------------------------------------------------- views

    def rounds(self) -> list[int]:
        """The round each point represents (its window end)."""
        return [point.end for point in self.points]

    def values(self) -> list[float]:
        """The ``last`` value of each point — the alert-visible signal."""
        return [point.last for point in self.points]

    @property
    def latest(self) -> SeriesPoint | None:
        return self.points[-1] if self.points else None

    # --------------------------------------------------------- serialize

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "compactions": self.compactions,
            "points": [point.to_list() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Series":
        series = cls(data["name"], int(data["capacity"]))
        series.compactions = int(data.get("compactions", 0))
        series.points = [
            SeriesPoint.from_list(point) for point in data["points"]
        ]
        return series


class SeriesRecorder:
    """Sample a metrics registry into per-metric ring-buffered series.

    ``sample(round_index)`` freezes the registry and appends one point
    per metric (plus the derived delta/rate/EWMA series) at that round.
    The caller supplies the clock; rounds must be strictly increasing.

    ``prefixes`` restricts recording to metrics whose dotted name starts
    with one of the given prefixes (``None`` records everything) —
    attach ``prefixes=("stream.",)`` to a million-round session to keep
    only the ingestion history.

    ``rules`` attaches a :class:`~repro.obs.alerts.AlertEngine`
    (available as :attr:`alerts`): every sample is pushed through the
    rules right after recording, so firing/resolving is part of the same
    deterministic clock.

    The recorder is checkpointable: :meth:`state_dict` /
    :meth:`load_state` round-trip every series, the derivation state
    (previous counter values, EWMA accumulators), and the alert-engine
    state, so a resumed streaming session continues the exact series an
    uninterrupted one would have built.
    """

    def __init__(
        self,
        registry,
        *,
        capacity: int = DEFAULT_CAPACITY,
        prefixes: Iterable[str] | None = None,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        derive: bool = True,
        rules: Iterable | None = None,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if capacity < 2:
            # Checked here too, so a bad capacity fails at construction
            # rather than at the first sample.
            raise ValueError("series capacity must be at least 2")
        self.registry = registry
        self.capacity = capacity
        self.prefixes = tuple(prefixes) if prefixes is not None else None
        self.ewma_alpha = ewma_alpha
        self.derive = derive
        self.series: dict[str, Series] = {}
        self.samples = 0
        self._last_round: int | None = None
        self._last_counters: dict[str, float] = {}
        self._ewma: dict[str, float] = {}
        #: Per-kind sample plan (see :meth:`_resolve`) and the registry
        #: size it was built for; ``None`` until the first sample.
        self._plan: tuple[list, list, list] | None = None
        self._plan_size = -1
        self.alerts = None
        if rules is not None:
            from repro.obs.alerts import AlertEngine

            self.alerts = AlertEngine(rules)

    # ------------------------------------------------------------ sample

    def _wanted(self, name: str) -> bool:
        if self.prefixes is None:
            return True
        return any(name.startswith(prefix) for prefix in self.prefixes)

    def _series(self, name: str) -> Series:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(name, self.capacity)
        return series

    def _resolve(self) -> tuple[list, list, list]:
        """Resolve every wanted instrument's series and names once.

        Returns ``(counters, gauges, histograms)``, each sorted by name,
        the order a registry snapshot lists them in.  Counter and
        histogram series exist from their first sample, so they are
        resolved here; a gauge's series only once it holds a value.
        :meth:`sample` rebuilds the plan when the registry gains an
        instrument, and :meth:`load_state` drops it.
        """
        counters, gauges, histograms = [], [], []
        derive = self.derive
        for name, instrument in self.registry.instruments():
            if not self._wanted(name):
                continue
            if isinstance(instrument, Counter):
                derived = None
                if derive:
                    # (name, series) of the delta, rate and ewma series.
                    derived = tuple(
                        (f"{name}.{suffix}", self._series(f"{name}.{suffix}"))
                        for suffix in ("delta", "rate", "ewma")
                    )
                counters.append((name, instrument, self._series(name), derived))
            elif isinstance(instrument, Gauge):
                gauges.append((name, instrument, f"{name}.ewma"))
            else:
                histograms.append(
                    (
                        instrument,
                        f"{name}.count",
                        self._series(f"{name}.count"),
                        f"{name}.mean",
                        self._series(f"{name}.mean"),
                    )
                )
        self._plan_size = len(self.registry)
        return counters, gauges, histograms

    def _ewma_update(self, name: str, value: float) -> float:
        previous = self._ewma.get(name)
        if previous is None:
            smoothed = float(value)
        else:
            alpha = self.ewma_alpha
            smoothed = alpha * float(value) + (1.0 - alpha) * previous
        self._ewma[name] = smoothed
        return smoothed

    def sample(self, round_index: int) -> dict[str, float]:
        """Record one sample of every (wanted) metric at ``round_index``.

        Returns the flat ``{series name: value}`` mapping of everything
        recorded — the same mapping the attached alert engine (if any)
        is fed.
        """
        if self._last_round is not None and round_index <= self._last_round:
            raise ValueError(
                f"sample round {round_index} is not after the previous "
                f"sample round {self._last_round}"
            )
        if self._plan is None or self._plan_size != len(self.registry):
            self._plan = self._resolve()
        counters, gauges, histograms = self._plan
        elapsed = (
            round_index - self._last_round
            if self._last_round is not None
            else None
        )
        last_counters = self._last_counters
        values: dict[str, float] = {}
        for name, counter, series, derived in counters:
            value = float(counter.value)
            series.append(round_index, value)
            values[name] = value
            if derived is None:
                continue
            delta = value - last_counters.get(name, 0.0)
            last_counters[name] = value
            rate = delta / elapsed if elapsed else 0.0
            ewma = self._ewma_update(name, rate)
            for (derived_name, derived_series), derived_value in zip(
                derived, (delta, rate, ewma)
            ):
                derived_series.append(round_index, derived_value)
                values[derived_name] = derived_value
        for name, gauge, ewma_name in gauges:
            if gauge.value is None:
                continue
            value = float(gauge.value)
            self._series(name).append(round_index, value)
            values[name] = value
            if self.derive:
                ewma = self._ewma_update(name, value)
                self._series(ewma_name).append(round_index, ewma)
                values[ewma_name] = ewma
        for histogram, count_name, count_series, mean_name, mean_series in histograms:
            count = float(histogram.count)
            mean = float(histogram.mean) if count else 0.0
            count_series.append(round_index, count)
            mean_series.append(round_index, mean)
            values[count_name] = count
            values[mean_name] = mean
        self._last_round = round_index
        self.samples += 1
        if self.alerts is not None:
            self.alerts.observe(round_index, values)
        return values

    # ------------------------------------------------------------- views

    def names(self) -> list[str]:
        return sorted(self.series)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every series (the ``/series`` payload)."""
        return {
            "schema": SERIES_SCHEMA,
            "capacity": self.capacity,
            "samples": self.samples,
            "series": {
                name: self.series[name].to_dict()
                for name in sorted(self.series)
            },
        }

    # ------------------------------------------- checkpoint/restore

    def state_dict(self) -> dict[str, Any]:
        state: dict[str, Any] = {
            "samples": self.samples,
            "last_round": self._last_round,
            "last_counters": dict(self._last_counters),
            "ewma": dict(self._ewma),
            "series": {
                name: self.series[name].to_dict()
                for name in sorted(self.series)
            },
        }
        if self.alerts is not None:
            state["alerts"] = self.alerts.state_dict()
        return state

    def load_state(self, state: Mapping[str, Any]) -> None:
        self.samples = int(state["samples"])
        last_round = state["last_round"]
        self._last_round = None if last_round is None else int(last_round)
        self._last_counters = {
            name: float(value)
            for name, value in state["last_counters"].items()
        }
        self._ewma = {
            name: float(value) for name, value in state["ewma"].items()
        }
        self.series = {
            name: Series.from_dict(data)
            for name, data in state["series"].items()
        }
        self._plan = None
        if self.alerts is not None and "alerts" in state:
            self.alerts.load_state(state["alerts"])


# ------------------------------------------------------------ persistence


def write_series_jsonl(
    source: SeriesRecorder | Mapping[str, Any], path: str | Path
) -> Path:
    """Write a recorder (or its :meth:`~SeriesRecorder.snapshot`) as
    schema-tagged JSONL: one header line, then one line per series."""
    snapshot = (
        source.snapshot() if isinstance(source, SeriesRecorder) else source
    )
    if snapshot.get("schema") != SERIES_SCHEMA:
        raise ValueError(
            f"expected a {SERIES_SCHEMA} snapshot, got "
            f"{snapshot.get('schema')!r}"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "schema": SERIES_SCHEMA,
            "capacity": snapshot.get("capacity"),
            "samples": snapshot.get("samples", 0),
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for name in sorted(snapshot.get("series", {})):
            handle.write(
                json.dumps(snapshot["series"][name], sort_keys=True) + "\n"
            )
    return path


def read_series_jsonl(path: str | Path) -> dict[str, Any]:
    """Read a :func:`write_series_jsonl` file back into a snapshot dict.

    Reads ``repro-series/v2`` and ``repro-series/v1`` files; the
    snapshot carries every series in the current encoding.  Raises
    :class:`~repro.core.inputs.InputError` naming the file and line on
    a missing, foreign or malformed header, or on a line that is not a
    valid series.
    """
    rows = read_jsonl(path, "series file").rows
    if not rows:
        raise InputError(f"series file {path} is empty")
    (_, header), *lines = rows
    if header.get("schema") not in _READABLE_SCHEMAS:
        raise InputError(
            f"series file {path} has schema {header.get('schema')!r}; "
            f"expected one of {', '.join(_READABLE_SCHEMAS)}"
        )
    series: dict[str, Any] = {}
    for number, data in lines:
        with malformed(f"series file {path}", number):
            one = Series.from_dict(data)
        series[one.name] = one.to_dict()
    return {
        "schema": SERIES_SCHEMA,
        "capacity": header.get("capacity"),
        "samples": header.get("samples", 0),
        "series": series,
    }


def series_from_snapshot(snapshot: Mapping[str, Any]) -> dict[str, Series]:
    """Materialize :class:`Series` objects from a snapshot/JSONL dict."""
    return {
        name: Series.from_dict(data)
        for name, data in snapshot.get("series", {}).items()
    }
