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

A series file may go on after its series lines with *sample lines*,
``{"round": r, "values": {series: value}}``: each is one
:meth:`SeriesRecorder.sample` result, appended as it was recorded.  The
reader replays them onto the series through :func:`append_sample`, the
path every live sample takes into the rings; compaction is a pure
function of the appends, so the replay rebuilds the rings exactly.  A
streaming checkpoint's series sidecar
(:mod:`repro.streaming.checkpoint`) is such a file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.core.inputs import InputError, malformed, read_jsonl
from repro.core.instance import is_count
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
        # tuple.__new__ skips the generated __new__'s Python frame: every
        # decoded single sample is built here (Series.append inlines it).
        return tuple.__new__(
            cls, (round_index, round_index, 1, value, value, value, value)
        )

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
        # Every live and replayed sample passes here, once per series, so
        # this reads the last point's ``end`` by index and builds the new
        # point as SeriesPoint.sample does, without the call.
        points = self.points
        if points and round_index <= points[-1][1]:
            raise ValueError(
                f"series {self.name!r}: sample round {round_index} is not "
                f"after the last recorded round {points[-1][1]}"
            )
        if len(points) >= self.capacity:
            self._compact()
            points = self.points
        value = float(value)
        points.append(
            tuple.__new__(
                SeriesPoint,
                (round_index, round_index, 1, value, value, value, value),
            )
        )

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


def append_sample(
    series: dict[str, Series],
    capacity: int,
    round_index: int,
    values: Mapping[str, float],
) -> None:
    """Append one sample's ``{series name: value}`` to the rings in
    ``series``, starting a ring of ``capacity`` at a name's first value.

    The one path by which points enter a recorder's rings: a live
    :meth:`SeriesRecorder.sample` and the replay of a series file's
    sample lines both take it, so a replay rebuilds the rings exactly.
    """
    for name, value in values.items():
        ring = series.get(name)
        if ring is None:
            ring = series[name] = Series(name, capacity)
        ring.append(round_index, value)


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

    The recorder is checkpointable: :meth:`state_dict` holds the
    derivation state (previous counter values, EWMA accumulators) and
    the alert-engine state, and :meth:`load_state` restores it together
    with the rings, which a streaming checkpoint keeps in a series file
    beside it — so a resumed streaming session continues the exact
    series an uninterrupted one would have built.
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

    def _resolve(self) -> tuple[list, list, list]:
        """Resolve every wanted instrument and its series names once.

        Returns ``(counters, gauges, histograms)``, each sorted by name,
        the order a registry snapshot lists them in.  :meth:`sample`
        rebuilds the plan when the registry gains an instrument.
        """
        counters, gauges, histograms = [], [], []
        derive = self.derive
        for name, instrument in self.registry.instruments():
            if not self._wanted(name):
                continue
            if isinstance(instrument, Counter):
                derived = None
                if derive:
                    derived = tuple(
                        f"{name}.{suffix}" for suffix in ("delta", "rate", "ewma")
                    )
                counters.append((name, instrument, derived))
            elif isinstance(instrument, Gauge):
                gauges.append((name, instrument, f"{name}.ewma"))
            else:
                histograms.append((instrument, f"{name}.count", f"{name}.mean"))
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
        for name, counter, derived in counters:
            value = float(counter.value)
            values[name] = value
            if derived is None:
                continue
            delta = value - last_counters.get(name, 0.0)
            last_counters[name] = value
            rate = delta / elapsed if elapsed else 0.0
            delta_name, rate_name, ewma_name = derived
            values[delta_name] = delta
            values[rate_name] = rate
            values[ewma_name] = self._ewma_update(name, rate)
        for name, gauge, ewma_name in gauges:
            if gauge.value is None:
                continue
            value = float(gauge.value)
            values[name] = value
            if self.derive:
                values[ewma_name] = self._ewma_update(name, value)
        for histogram, count_name, mean_name in histograms:
            count = float(histogram.count)
            values[count_name] = count
            values[mean_name] = float(histogram.mean) if count else 0.0
        append_sample(self.series, self.capacity, round_index, values)
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
        """Everything but the rings: the sample count, the last sample
        round, the counter values and EWMAs the next sample derives
        from, and the alert-engine state."""
        state: dict[str, Any] = {
            "samples": self.samples,
            "last_round": self._last_round,
            "last_counters": dict(self._last_counters),
            "ewma": dict(self._ewma),
        }
        if self.alerts is not None:
            state["alerts"] = self.alerts.state_dict()
        return state

    def load_state(
        self, state: Mapping[str, Any], series: dict[str, Series]
    ) -> None:
        """Restore a :meth:`state_dict` and the rings ``series`` (read
        back from a series file, whose sample lines were replayed)."""
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
        self.series = series
        if self.alerts is not None and "alerts" in state:
            self.alerts.load_state(state["alerts"])


# ------------------------------------------------------------ persistence


def series_file_text(snapshot: Mapping[str, Any]) -> str:
    """A :meth:`~SeriesRecorder.snapshot` as series-file text: one header
    line, then one line per series."""
    if snapshot.get("schema") != SERIES_SCHEMA:
        raise ValueError(
            f"expected a {SERIES_SCHEMA} snapshot, got "
            f"{snapshot.get('schema')!r}"
        )
    header = {
        "schema": SERIES_SCHEMA,
        "capacity": snapshot.get("capacity"),
        "samples": snapshot.get("samples", 0),
    }
    series = snapshot.get("series", {})
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(series[name], sort_keys=True) for name in sorted(series))
    return "\n".join(lines) + "\n"


def sample_line(round_index: int, values: Mapping[str, float]) -> str:
    """The series-file line of one :meth:`SeriesRecorder.sample` result."""
    line = json.dumps({"round": round_index, "values": values}, separators=(",", ":"))
    return line + "\n"


def write_series_jsonl(
    source: SeriesRecorder | Mapping[str, Any], path: str | Path
) -> Path:
    """Write a recorder (or its :meth:`~SeriesRecorder.snapshot`) as a
    series file (:func:`series_file_text`)."""
    snapshot = (
        source.snapshot() if isinstance(source, SeriesRecorder) else source
    )
    text = series_file_text(snapshot)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class SeriesFile(NamedTuple):
    """A decoded series file."""

    #: The header's ring capacity.
    capacity: Any
    #: Samples recorded: the header's count plus the sample lines.
    samples: int
    series: dict[str, Series]
    #: Sample lines after the series lines.
    appended: int


def decode_series_file(rows: list[tuple[int, dict]], source: str) -> SeriesFile:
    """Decode the ``(line number, object)`` rows of a series file, whose
    sample lines are replayed onto its series through
    :func:`append_sample`.

    Raises :class:`~repro.core.inputs.InputError` naming ``source`` and
    the line on a missing, foreign or malformed header, a line that is
    not a valid series or sample, or a series line after a sample line.
    """
    if not rows:
        raise InputError(f"{source} is empty")
    (_, header), *lines = rows
    if header.get("schema") not in _READABLE_SCHEMAS:
        raise InputError(
            f"{source} has schema {header.get('schema')!r}; "
            f"expected one of {', '.join(_READABLE_SCHEMAS)}"
        )
    capacity = header.get("capacity")
    samples = header.get("samples", 0)
    if not is_count(samples):
        raise InputError(f"{source} line 1: samples must be a count, got {samples!r}")
    series: dict[str, Series] = {}
    appended = 0
    last_round = -1
    for number, data in lines:
        with malformed(source, number):
            if "values" in data:
                last_round = _replay(series, capacity, last_round, data)
                appended += 1
            elif appended:
                raise ValueError("series line after the sample lines")
            else:
                one = Series.from_dict(data)
                series[one.name] = one
    return SeriesFile(capacity, samples + appended, series, appended)


def _replay(
    series: dict[str, Series], capacity, last_round: int, line: Mapping
) -> int:
    """Append one sample line after round ``last_round``; returns its
    round."""
    round_index, values = line["round"], line["values"]
    if not is_count(round_index) or round_index <= last_round:
        raise ValueError(
            f"sample round {round_index!r} is not a round after the "
            "previous sample's"
        )
    if not isinstance(values, dict) or not {
        type(value) for value in values.values()
    } <= {float, int}:
        raise ValueError("sample values must map series to numbers")
    if not is_count(capacity):
        raise ValueError(f"the header's capacity {capacity!r} is not a count")
    append_sample(series, capacity, round_index, values)
    return round_index


def read_series_jsonl(path: str | Path) -> dict[str, Any]:
    """Read a series file back into a :meth:`~SeriesRecorder.snapshot`.

    Reads ``repro-series/v2`` and ``repro-series/v1`` files, sample
    lines included (a streaming checkpoint's sidecar reads back as its
    recorder's snapshot); the snapshot carries every series in the
    current encoding.  Raises :class:`~repro.core.inputs.InputError`
    naming the file and line on anything malformed
    (:func:`decode_series_file`).
    """
    rows = read_jsonl(path, "series file").rows
    decoded = decode_series_file(rows, f"series file {path}")
    return {
        "schema": SERIES_SCHEMA,
        "capacity": decoded.capacity,
        "samples": decoded.samples,
        "series": {
            name: decoded.series[name].to_dict()
            for name in sorted(decoded.series)
        },
    }


def series_from_snapshot(snapshot: Mapping[str, Any]) -> dict[str, Series]:
    """Materialize :class:`Series` objects from a snapshot/JSONL dict."""
    return {
        name: Series.from_dict(data)
        for name, data in snapshot.get("series", {}).items()
    }
