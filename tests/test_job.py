"""Unit tests for repro.core.job."""

import pytest

from repro.core.job import BLACK, Job, JobFactory, iter_colors


class TestJobValidation:
    def test_black_color_rejected(self):
        with pytest.raises(ValueError, match="BLACK"):
            Job(0, BLACK, 4, 0)

    def test_negative_color_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Job(0, -5, 4, 0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            Job(-1, 0, 4, 0)

    def test_zero_delay_bound_rejected(self):
        with pytest.raises(ValueError, match="delay bound"):
            Job(0, 0, 0, 0)

    def test_negative_delay_bound_rejected(self):
        with pytest.raises(ValueError, match="delay bound"):
            Job(0, 0, -4, 0)

    def test_valid_job_constructs(self):
        job = Job(3, 1, 4, 7)
        assert job.arrival == 3
        assert job.color == 1
        assert job.delay_bound == 4
        assert job.jid == 7


class TestJobSemantics:
    def test_deadline_is_arrival_plus_bound(self):
        assert Job(5, 0, 4, 0).deadline == 9

    def test_executable_window_is_half_open(self):
        job = Job(2, 0, 3, 0)
        assert not job.executable_in(1)
        assert job.executable_in(2)
        assert job.executable_in(4)
        assert not job.executable_in(5)  # deadline round: drop phase only

    def test_unit_delay_bound_single_round_window(self):
        job = Job(7, 0, 1, 0)
        assert job.executable_in(7)
        assert not job.executable_in(8)

    def test_with_color_preserves_identity(self):
        job = Job(2, 0, 4, 9)
        recolored = job.with_color(5)
        assert recolored.jid == 9
        assert recolored.color == 5
        assert recolored.arrival == 2
        assert recolored.delay_bound == 4

    def test_with_arrival_can_change_bound(self):
        job = Job(2, 0, 8, 9)
        moved = job.with_arrival(4, 4)
        assert moved.arrival == 4
        assert moved.delay_bound == 4
        assert moved.deadline == 8
        assert moved.jid == 9

    def test_ordering_is_by_arrival_then_color_then_jid(self):
        a = Job(0, 1, 4, 5)
        b = Job(0, 2, 4, 1)
        c = Job(1, 0, 4, 0)
        assert sorted([c, b, a]) == [a, b, c]


class TestJobFactory:
    def test_ids_are_sequential_and_unique(self):
        factory = JobFactory()
        jobs = [factory.make(0, 0, 2) for _ in range(5)]
        assert [j.jid for j in jobs] == [0, 1, 2, 3, 4]

    def test_start_offset(self):
        factory = JobFactory(start=100)
        assert factory.make(0, 0, 2).jid == 100

    def test_batch_mints_n_jobs(self):
        factory = JobFactory()
        batch = factory.batch(4, 2, 8, 3)
        assert len(batch) == 3
        assert all(j.arrival == 4 and j.color == 2 for j in batch)

    def test_batch_zero_is_empty(self):
        assert JobFactory().batch(0, 0, 2, 0) == []

    def test_batch_negative_rejected(self):
        with pytest.raises(ValueError):
            JobFactory().batch(0, 0, 2, -1)


class TestGroupingHelpers:
    def test_iter_colors_sorted_distinct(self):
        factory = JobFactory()
        jobs = factory.batch(0, 3, 2, 1) + factory.batch(0, 1, 2, 2)
        assert list(iter_colors(jobs)) == [1, 3]
