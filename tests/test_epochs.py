"""Tests of epoch/super-epoch extraction and the Section 3.4 structure."""

import pytest

from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.analysis.epochs import Epoch, analyze_epochs
from repro.core.events import Trace
from repro.simulation.engine import simulate
from repro.workloads.random_batched import random_rate_limited


def ArrivalEvent(round_index, color, count):
    return "arrival", round_index, {"color": color, "count": count}


def IneligibleEvent(round_index, color):
    return "ineligible", round_index, {"color": color}


def TimestampEvent(round_index, color, timestamp):
    return "timestamp", round_index, {"color": color, "timestamp": timestamp}


def make_trace(events):
    trace = Trace()
    for name, round_index, data in events:
        trace.event(name, round_index, **data)
    return trace


class TestEpochExtraction:
    def test_color_without_closings_has_one_epoch(self):
        trace = make_trace([ArrivalEvent(0, 7, 3)])
        analysis = analyze_epochs(trace, threshold=2)
        epochs = analysis.epochs_of(7)
        assert len(epochs) == 1
        assert not epochs[0].complete

    def test_closings_split_epochs(self):
        trace = make_trace(
            [
                ArrivalEvent(0, 0, 3),
                IneligibleEvent(4, 0),
                IneligibleEvent(12, 0),
            ]
        )
        analysis = analyze_epochs(trace, threshold=2)
        epochs = analysis.epochs_of(0)
        assert len(epochs) == 3
        assert (epochs[0].start, epochs[0].end) == (0, 4)
        assert (epochs[1].start, epochs[1].end) == (4, 12)
        assert epochs[2].end is None

    def test_num_epochs_counts_incomplete(self):
        trace = make_trace(
            [
                ArrivalEvent(0, 0, 1),
                ArrivalEvent(0, 1, 1),
                IneligibleEvent(4, 0),
            ]
        )
        analysis = analyze_epochs(trace, threshold=2)
        assert analysis.num_epochs == 3  # two for color 0, one for color 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            analyze_epochs(Trace(), threshold=0)


class TestSuperEpochs:
    def test_super_epoch_closes_at_threshold(self):
        trace = make_trace(
            [
                TimestampEvent(4, 0, 2),
                TimestampEvent(6, 1, 4),
                TimestampEvent(8, 2, 6),
                TimestampEvent(10, 3, 8),
            ]
        )
        analysis = analyze_epochs(trace, threshold=2)
        complete = [s for s in analysis.super_epochs if s.complete]
        assert len(complete) == 2
        assert complete[0].end == 6
        assert complete[0].active_colors == frozenset({0, 1})
        assert complete[1].end == 10

    def test_repeated_color_updates_do_not_close(self):
        trace = make_trace(
            [TimestampEvent(4 * i, 0, 2 * i) for i in range(1, 6)]
        )
        analysis = analyze_epochs(trace, threshold=2)
        assert not any(s.complete for s in analysis.super_epochs)

    def test_trailing_incomplete_super_epoch(self):
        trace = make_trace([TimestampEvent(4, 0, 2)])
        analysis = analyze_epochs(trace, threshold=2)
        assert len(analysis.super_epochs) == 1
        assert not analysis.super_epochs[0].complete


class TestEpochOverlap:
    def test_overlap_semantics(self):
        epoch = Epoch(0, 0, 4, 12)
        assert epoch.overlaps(0, 4)
        assert epoch.overlaps(12, 20)
        assert epoch.overlaps(6, 8)
        assert not epoch.overlaps(13, 20)

    def test_open_ended_epoch_overlaps_everything_later(self):
        epoch = Epoch(0, 1, 8, None)
        assert epoch.overlaps(100, None)
        assert not epoch.overlaps(0, 7)


class TestPaperStructureOnRealRuns:
    @pytest.mark.parametrize("seed", range(4))
    def test_corollary_3_2_at_most_three_epochs_per_super_epoch(self, seed):
        inst = random_rate_limited(
            6, 2, 96, seed=seed, load=0.6, bound_choices=(2, 4, 8)
        )
        result = simulate(inst, DeltaLRUEDF(), 16)
        analysis = analyze_epochs(result.trace, threshold=4)  # 2m with m=2
        for super_epoch in analysis.super_epochs:
            per_color = {}
            for epoch in analysis.active_epochs(super_epoch):
                per_color[epoch.color] = per_color.get(epoch.color, 0) + 1
            assert all(v <= 3 for v in per_color.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_lemma_3_16_at_most_three_special_epochs_per_color(self, seed):
        inst = random_rate_limited(
            6, 2, 96, seed=seed, load=0.6, bound_choices=(2, 4, 8)
        )
        result = simulate(inst, DeltaLRUEDF(), 16)
        analysis = analyze_epochs(result.trace, threshold=4)
        per_color = {}
        for epoch in analysis.special_epochs():
            per_color[epoch.color] = per_color.get(epoch.color, 0) + 1
        assert all(v <= 3 for v in per_color.values()), per_color
