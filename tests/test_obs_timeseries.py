"""Metric time-series: ring buffers, compaction, recorder, persistence.

The load-bearing properties: memory stays O(capacity) no matter how many
samples arrive (compaction, not truncation — aggregates survive), and
the recorded series are a pure function of the (round, snapshot) sample
sequence, so any producer following the same round clock builds the
same history.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.render import render_series, sparkline
from repro.obs.timeseries import (
    Series,
    SeriesPoint,
    SeriesRecorder,
    read_series_jsonl,
    sample_line,
    series_from_snapshot,
    write_series_jsonl,
)


class TestSeriesPoint:
    def test_sample_and_merge_aggregates(self):
        a = SeriesPoint.sample(10, 3.0)
        b = SeriesPoint.sample(20, 7.0)
        merged = a.merge(b)
        assert merged.start == 10 and merged.end == 20
        assert merged.count == 2
        assert merged.last == 7.0
        assert merged.min == 3.0 and merged.max == 7.0
        assert merged.total == 10.0
        assert merged.mean == 5.0

    def test_list_round_trip(self):
        point = SeriesPoint.sample(4, 2.5).merge(SeriesPoint.sample(8, -1.0))
        assert SeriesPoint.from_list(point.to_list()) == point


class TestSeries:
    def test_appends_must_be_round_ordered(self):
        series = Series("x", capacity=4)
        series.append(5, 1.0)
        with pytest.raises(ValueError, match="not\\s+after"):
            series.append(5, 2.0)
        with pytest.raises(ValueError):
            series.append(3, 2.0)

    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="at least 2"):
            Series("x", capacity=1)

    def test_compaction_bounds_memory_and_keeps_aggregates(self):
        capacity = 16
        series = Series("x", capacity=capacity)
        rounds = 10_000
        for k in range(rounds):
            series.append(k, float(k))
        assert len(series) <= capacity
        assert series.compactions > 0
        # Nothing was dropped: the point windows tile [0, rounds).
        assert series.points[0].start == 0
        assert series.points[-1].end == rounds - 1
        assert sum(p.count for p in series.points) == rounds
        assert sum(p.total for p in series.points) == sum(range(rounds))
        # Windows stay ordered and disjoint.
        for prev, nxt in zip(series.points, series.points[1:]):
            assert prev.end < nxt.start
        # The newest value is always exact.
        assert series.latest.last == float(rounds - 1)

    def test_dict_round_trip(self):
        series = Series("engine.drops", capacity=4)
        for k in range(9):
            series.append(k * 10, float(k))
        clone = Series.from_dict(series.to_dict())
        assert clone.name == series.name
        assert clone.capacity == series.capacity
        assert clone.compactions == series.compactions
        assert clone.points == series.points


class TestSeriesRecorder:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("stream.offered")
        registry.gauge("stream.round")
        registry.histogram("stream.queue_depth", buckets=(1, 2, 4))
        return registry

    def test_derives_delta_rate_ewma_and_histogram_series(self):
        registry = self._registry()
        recorder = SeriesRecorder(registry, capacity=8)
        registry.counter("stream.offered").inc(4)
        registry.gauge("stream.round").set(10.0)
        registry.histogram("stream.queue_depth", buckets=(1, 2, 4)).observe(
            2, n=3
        )
        values = recorder.sample(10)
        assert values["stream.offered"] == 4.0
        assert values["stream.offered.delta"] == 4.0
        # First sample has no elapsed window: rate is 0 by convention.
        assert values["stream.offered.rate"] == 0.0
        registry.counter("stream.offered").inc(6)
        values = recorder.sample(20)
        assert values["stream.offered.delta"] == 6.0
        assert values["stream.offered.rate"] == pytest.approx(0.6)
        assert values["stream.queue_depth.count"] == 3.0
        assert values["stream.queue_depth.mean"] == pytest.approx(2.0)
        assert set(recorder.names()) == {
            "stream.offered",
            "stream.offered.delta",
            "stream.offered.rate",
            "stream.offered.ewma",
            "stream.round",
            "stream.round.ewma",
            "stream.queue_depth.count",
            "stream.queue_depth.mean",
        }

    def test_prefix_filter_and_derive_off(self):
        registry = self._registry()
        registry.counter("engine.drops").inc(2)
        recorder = SeriesRecorder(
            registry, prefixes=("engine.",), derive=False
        )
        registry.gauge("stream.round").set(5.0)
        values = recorder.sample(1)
        assert values == {"engine.drops": 2.0}
        assert recorder.names() == ["engine.drops"]

    def test_rounds_must_increase(self):
        recorder = SeriesRecorder(self._registry())
        recorder.sample(10)
        with pytest.raises(ValueError, match="not after"):
            recorder.sample(10)

    def test_ewma_alpha_validated(self):
        with pytest.raises(ValueError, match="ewma_alpha"):
            SeriesRecorder(self._registry(), ewma_alpha=0.0)

    def test_state_round_trip_continues_exactly(self):
        def drive(recorder, registry, rounds):
            for k in rounds:
                registry.counter("stream.offered").inc(k % 5)
                registry.gauge("stream.round").set(float(k))
                recorder.sample(k)

        rounds = list(range(10, 400, 10))
        reg_a = self._registry()
        uninterrupted = SeriesRecorder(reg_a, capacity=8)
        drive(uninterrupted, reg_a, rounds)

        reg_b = self._registry()
        first = SeriesRecorder(reg_b, capacity=8)
        drive(first, reg_b, rounds[:20])
        state = first.state_dict()
        counters_at_cut = reg_b.snapshot()["counters"]

        reg_c = self._registry()
        # Re-seed the registry as a resumed producer would, then restore.
        reg_c.counter("stream.offered").inc(
            counters_at_cut["stream.offered"]
        )
        resumed = SeriesRecorder(reg_c, capacity=8)
        resumed.load_state(state, series_from_snapshot(first.snapshot()))
        drive(resumed, reg_c, rounds[20:])

        assert resumed.snapshot() == uninterrupted.snapshot()
        assert resumed.samples == uninterrupted.samples


class TestSeriesPersistence:
    def _recorder(self):
        registry = MetricsRegistry()
        recorder = SeriesRecorder(registry, capacity=8)
        counter = registry.counter("stream.offered")
        for k in range(1, 30):
            counter.inc(k)
            recorder.sample(k * 16)
        return recorder

    def test_jsonl_round_trip(self, tmp_path):
        recorder = self._recorder()
        path = tmp_path / "series.jsonl"
        write_series_jsonl(recorder, path)
        snapshot = read_series_jsonl(path)
        assert snapshot["schema"] == "repro-series/v2"
        assert snapshot["samples"] == recorder.samples
        restored = series_from_snapshot(snapshot)
        assert set(restored) == set(recorder.names())
        for name, series in restored.items():
            assert series.points == recorder.series[name].points

    def test_snapshot_dict_is_also_writable(self, tmp_path):
        recorder = self._recorder()
        path = tmp_path / "series.jsonl"
        write_series_jsonl(recorder.snapshot(), path)
        assert read_series_jsonl(path)["samples"] == recorder.samples

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "something-else/v9"}\n')
        with pytest.raises(ValueError, match="schema"):
            read_series_jsonl(path)
        with pytest.raises(ValueError, match="expected a repro-series/v2"):
            write_series_jsonl({"schema": "nope"}, tmp_path / "out.jsonl")

    def test_corrupt_line_names_line_number(self, tmp_path):
        recorder = self._recorder()
        path = tmp_path / "series.jsonl"
        write_series_jsonl(recorder, path)
        torn = path.read_text().splitlines()
        torn[2] = torn[2][: len(torn[2]) // 2]
        path.write_text("\n".join(torn) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_series_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_series_jsonl(path)

    @pytest.mark.parametrize(
        "lines, where",
        [
            (["[]"], "line 1"),
            (['{"schema": "repro-series/v2"}', '{"capacity": 4}'], "line 2"),
            (['{"schema": "repro-series/v2"}', "[1, 2]"], "line 2"),
            (
                [
                    '{"schema": "repro-series/v2"}',
                    '{"name": "x", "capacity": 4, "points": [[1, 2, 3]]}',
                ],
                "line 2",
            ),
            (
                [
                    '{"schema": "repro-series/v2", "capacity": 4}',
                    '{"round": 1, "values": {"x": 1.0}}',
                    '{"name": "y", "capacity": 4, "points": [[1, 2.0]]}',
                ],
                "line 3",
            ),
            (
                [
                    '{"schema": "repro-series/v2", "capacity": 4}',
                    '{"round": 5, "values": {"x": 1.0}}',
                    '{"round": 5, "values": {"y": 1.0}}',
                ],
                "line 3",
            ),
            (
                [
                    '{"schema": "repro-series/v2", "capacity": 4}',
                    '{"round": 1, "values": {"x": "1.0"}}',
                ],
                "line 2",
            ),
            (
                ['{"schema": "repro-series/v2"}', '{"round": 1, "values": {"x": 1.0}}'],
                "line 2",
            ),
        ],
        ids=["header-not-object", "no-name", "line-is-list", "three-field-point",
             "series-after-sample", "stale-sample-round", "value-not-a-number",
             "sample-without-capacity"],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, lines, where):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=where) as caught:
            read_series_jsonl(path)
        assert str(path) in str(caught.value)


# Values that stress the float encoding: signed zeros, infinities,
# subnormals and magnitudes whose sums overflow when points compact.
_values = st.one_of(
    st.sampled_from(
        [0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324,
         sys.float_info.min / 3, sys.float_info.max, -1e308]
    ),
    st.floats(allow_nan=False),
)
_appends = st.lists(
    st.tuples(st.integers(1, 5000), _values), min_size=1, max_size=40
)


def _series(capacity, appends):
    series = Series("x", capacity)
    round_index = 0
    for gap, value in appends:
        round_index += gap
        series.append(round_index, value)
    return series


def _exact(points):
    # repr tells -0.0 from 0.0 and matches NaN (from inf + -inf) with
    # itself, where == would not.
    return repr(list(points))


class TestSeriesEncodingLossless:
    @settings(max_examples=100, deadline=None)
    @given(capacity=st.integers(2, 9), appends=_appends)
    def test_json_round_trip_and_short_samples(self, capacity, appends):
        series = _series(capacity, appends)
        encoded = series.to_dict()
        for point, data in zip(series.points, encoded["points"]):
            assert len(data) == (2 if point.count == 1 else 7)
        restored = Series.from_dict(json.loads(json.dumps(encoded)))
        assert (restored.name, restored.capacity, restored.compactions) == (
            series.name, series.capacity, series.compactions
        )
        assert _exact(restored.points) == _exact(series.points)

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(capacity=st.integers(2, 9), appends=_appends)
    def test_v1_file_reads_back(self, tmp_path, capacity, appends):
        series = _series(capacity, appends)
        line = dict(series.to_dict(), points=[list(p) for p in series.points])
        path = tmp_path / "v1.jsonl"
        path.write_text(
            json.dumps({"schema": "repro-series/v1", "capacity": capacity})
            + "\n" + json.dumps(line) + "\n"
        )
        snapshot = read_series_jsonl(path)
        assert snapshot["schema"] == "repro-series/v2"
        restored = series_from_snapshot(snapshot)["x"]
        assert restored.compactions == series.compactions
        assert _exact(restored.points) == _exact(series.points)

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(2, 9),
        steps=st.lists(
            st.tuples(st.integers(1, 5000), st.integers(0, 10**6), _values),
            min_size=1,
            max_size=30,
        ),
    )
    def test_recorder_state_json_round_trip(self, capacity, steps):
        registry = MetricsRegistry()
        recorder = SeriesRecorder(registry, capacity=capacity)
        round_index = 0
        for gap, increment, value in steps:
            round_index += gap
            registry.counter("stream.offered").inc(increment)
            registry.gauge("stream.level").set(value)
            recorder.sample(round_index)
        state, snapshot = recorder.state_dict(), recorder.snapshot()
        restored = SeriesRecorder(MetricsRegistry(), capacity=capacity)
        restored.load_state(
            json.loads(json.dumps(state)),
            series_from_snapshot(json.loads(json.dumps(snapshot))),
        )
        assert json.dumps(restored.state_dict(), sort_keys=True) == json.dumps(
            state, sort_keys=True
        )
        assert json.dumps(restored.snapshot(), sort_keys=True) == json.dumps(
            snapshot, sort_keys=True
        )

    @settings(max_examples=100, deadline=None)
    @given(
        round_index=st.integers(0, 10**9),
        value=_values,
        field=st.sampled_from([1, 4, 5, 6]),
        other=_values,
    )
    def test_inconsistent_single_sample_rejected(
        self, round_index, value, field, other
    ):
        fields = list(SeriesPoint.sample(round_index, value))
        if field == 1:
            fields[1] = round_index + 1
        else:
            assume(repr(other) != repr(value))
            fields[field] = other
        with pytest.raises(ValueError, match="count 1"):
            SeriesPoint.from_list(fields)


class TestSampleLines:
    """A series file's sample lines replay through the append path live
    samples take, so the file reads back as the recorder's snapshot."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        capacity=st.integers(2, 6),
        cut=st.integers(0, 12),
        steps=st.lists(
            st.tuples(st.integers(1, 5000), st.integers(0, 10**6), _values),
            min_size=1,
            max_size=24,
        ),
    )
    def test_snapshot_plus_sample_lines_reads_as_the_recorder(
        self, tmp_path, capacity, cut, steps
    ):
        registry = MetricsRegistry()
        recorder = SeriesRecorder(registry, capacity=capacity)
        path = tmp_path / "series.jsonl"
        round_index = 0
        for index, (gap, increment, value) in enumerate(steps):
            if index == cut:
                write_series_jsonl(recorder, path)
            round_index += gap
            registry.counter("stream.offered").inc(increment)
            registry.gauge("stream.level").set(value)
            values = recorder.sample(round_index)
            if index >= cut:
                with path.open("a", encoding="utf-8") as handle:
                    handle.write(sample_line(round_index, values))
        if cut >= len(steps):
            write_series_jsonl(recorder, path)
        snapshot = read_series_jsonl(path)
        assert snapshot["samples"] == recorder.samples
        restored = series_from_snapshot(snapshot)
        assert set(restored) == set(recorder.series)
        for name, series in restored.items():
            assert series.compactions == recorder.series[name].compactions
            assert _exact(series.points) == _exact(recorder.series[name].points)


class TestSparkline:
    def test_empty_and_flat(self):
        assert sparkline([]) == ""
        flat = sparkline([5.0, 5.0, 5.0])
        assert flat == flat[0] * 3

    def test_monotone_ramp_is_nondecreasing(self):
        line = sparkline(range(8))
        assert list(line) == sorted(line)
        assert line[0] != line[-1]

    def test_downsamples_deterministically(self):
        values = list(range(1000))
        assert len(sparkline(values, width=40)) == 40
        assert sparkline(values, width=40) == sparkline(values, width=40)

    def test_nonfinite_values_clamp(self):
        line = sparkline([0.0, float("inf"), 1.0, float("nan")])
        assert len(line) == 4

    def test_width_validated(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)

    def test_render_series_accepts_all_source_shapes(self):
        registry = MetricsRegistry()
        recorder = SeriesRecorder(registry, capacity=8)
        counter = registry.counter("a")
        for k in range(1, 6):
            counter.inc(k)
            recorder.sample(k)
        from_recorder = render_series(recorder, names=["a"])
        from_snapshot = render_series(recorder.snapshot(), names=["a"])
        from_mapping = render_series(
            {"a": recorder.series["a"]}, names=["a"]
        )
        assert from_recorder == from_snapshot == from_mapping
        assert "a" in from_recorder and "last=" in from_recorder

    def test_render_series_unknown_name_and_bad_source(self):
        with pytest.raises(TypeError, match="render_series"):
            render_series(42)
        registry = MetricsRegistry()
        recorder = SeriesRecorder(registry)
        with pytest.raises(KeyError, match="unknown series"):
            render_series(recorder, names=["missing"])

    def test_render_series_empty(self):
        registry = MetricsRegistry()
        assert "no series" in render_series(SeriesRecorder(registry))
