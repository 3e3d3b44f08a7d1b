"""Unit tests for repro.core.instance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel
from repro.core.instance import (
    BatchMode,
    CountSequence,
    Instance,
    ProblemSpec,
    RequestSequence,
    make_instance,
)
from repro.core.job import Job, JobFactory


class TestProblemSpec:
    def test_requires_at_least_one_color(self):
        with pytest.raises(ValueError):
            ProblemSpec({}, CostModel(2))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ProblemSpec({0: 0}, CostModel(2))
        with pytest.raises(ValueError):
            ProblemSpec({-1: 4}, CostModel(2))

    def test_power_of_two_enforcement(self):
        with pytest.raises(ValueError, match="power of two"):
            ProblemSpec({0: 6}, CostModel(2), require_power_of_two=True)
        ProblemSpec({0: 8}, CostModel(2), require_power_of_two=True)

    def test_colors_sorted(self):
        spec = ProblemSpec({3: 2, 1: 4}, CostModel(2))
        assert spec.colors == (1, 3)

    def test_delay_bound_lookup(self):
        spec = ProblemSpec({0: 4}, CostModel(2))
        assert spec.delay_bound(0) == 4
        with pytest.raises(KeyError):
            spec.delay_bound(9)

    def test_with_batch_mode(self):
        spec = ProblemSpec({0: 4}, CostModel(2))
        batched = spec.with_batch_mode(BatchMode.BATCHED)
        assert batched.batch_mode is BatchMode.BATCHED
        assert spec.batch_mode is BatchMode.GENERAL


class TestRequestSequence:
    def test_duplicate_jids_rejected(self):
        jobs = [Job(0, 0, 2, 1), Job(1, 0, 2, 1)]
        with pytest.raises(ValueError, match="unique"):
            RequestSequence(jobs)

    def test_default_horizon_covers_last_deadline(self):
        seq = RequestSequence([Job(6, 0, 4, 0)])
        assert seq.horizon == 11  # deadline 10, drop phase at round 10

    def test_explicit_horizon_too_small_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            RequestSequence([Job(6, 0, 4, 0)], horizon=9)

    def test_arrivals_by_round(self):
        factory = JobFactory()
        seq = RequestSequence(factory.batch(4, 0, 2, 3))
        assert len(seq.arrivals(4)) == 3
        assert seq.arrivals(5) == ()
        assert seq.arrival_rounds() == (4,)

    def test_restricted_to(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 2, 2) + factory.batch(0, 1, 2, 3)
        seq = RequestSequence(jobs)
        only_one = seq.restricted_to([1])
        assert len(only_one) == 3
        assert only_one.colors == (1,)
        assert only_one.horizon == seq.horizon

    def test_count_by_color(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 2, 2) + factory.batch(0, 1, 2, 3)
        assert RequestSequence(jobs).count_by_color() == {0: 2, 1: 3}

    def test_empty_sequence(self):
        seq = RequestSequence([])
        assert len(seq) == 0
        assert seq.horizon == 1
        assert seq.colors == ()


@st.composite
def shuffled_jobs(draw):
    """Jobs with unique ids in any order; color 0 carries two delay bounds.

    A spec allows one bound per color, so only a bare
    :class:`RequestSequence` can hold such jobs; they make the order's
    ``delay_bound`` component decide between otherwise equal jobs.
    """
    shapes = draw(
        st.lists(
            st.tuples(
                st.integers(0, 12), st.integers(0, 3), st.sampled_from((2, 4))
            ),
            max_size=24,
        )
    )
    arrival = draw(st.integers(0, 12))
    shapes += [(arrival, 0, 4), (arrival, 0, 2)]
    jids = draw(st.permutations(range(len(shapes))))
    jobs = [Job(a, c, d, jid) for (a, c, d), jid in zip(shapes, jids)]
    return draw(st.permutations(jobs))


class TestRequestSequenceOrder:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_jobs())
    def test_jobs_and_rounds_follow_job_order(self, jobs):
        seq = RequestSequence(jobs)
        ordered = tuple(sorted(jobs))
        assert seq.jobs == ordered
        for k in range(seq.horizon):
            assert list(seq.arrivals(k)) == [j for j in ordered if j.arrival == k]
        assert list(seq.arrival_rounds()) == sorted({job.arrival for job in jobs})

    @settings(max_examples=30, deadline=None)
    @given(shuffled_jobs(), st.data())
    def test_duplicate_jids_still_rejected(self, jobs, data):
        twin = data.draw(st.sampled_from(jobs))
        clash = Job(twin.arrival + 1, twin.color, twin.delay_bound, twin.jid)
        position = data.draw(st.integers(0, len(jobs)))
        with pytest.raises(ValueError, match="unique"):
            RequestSequence(jobs[:position] + [clash] + jobs[position:])


class TestArrivalCounts:
    def test_counts_per_round_and_color(self):
        jobs = [Job(0, 1, 4, 0), Job(0, 0, 4, 1), Job(4, 1, 4, 2)]
        jobs.append(Job(0, 1, 4, 3))
        sequence = RequestSequence(jobs, 9)
        assert sequence.arrival_counts == {0: {0: 1, 1: 2}, 4: {1: 1}}
        # Derived once: the sequence is immutable.
        assert sequence.arrival_counts is sequence.arrival_counts


class TestCountSequence:
    """Count-backed segments get the job checks, restated for counts."""

    SPEC = ProblemSpec({0: 4, 1: 8}, CostModel(2), BatchMode.RATE_LIMITED)

    def test_valid_counts(self):
        counts = {0: {0: 4, 1: 2}, 8: {1: 8}}
        inst = Instance(self.SPEC, CountSequence(counts, 12))
        assert len(inst.sequence) == 14
        assert inst.sequence.colors == (0, 1)
        assert inst.horizon == 12

    @pytest.mark.parametrize(
        "counts, horizon, problem",
        [
            ({0: {5: 1}}, 8, "undeclared color 5"),
            ({4: {1: 1}}, 8, "not a multiple of 8"),
            ({0: {0: 5}}, 8, "exceeding D_ℓ = 4"),
            ({8: {0: 1}}, 8, "arrival < horizon"),
            ({0: {0: -1}}, 8, "nonnegative integer"),
            ({0: {0: 1.0}}, 8, "nonnegative integer"),
            ({0: {0: True}}, 8, "nonnegative integer"),
        ],
    )
    def test_invalid_counts(self, counts, horizon, problem):
        with pytest.raises(ValueError) as caught:
            Instance(self.SPEC, CountSequence(counts, horizon))
        assert problem in str(caught.value)

    def test_general_spec_and_full_record_refused(self):
        from repro.algorithms.dlru import DeltaLRU
        from repro.simulation.engine import BatchedEngine

        general = ProblemSpec({0: 4}, CostModel(2))
        with pytest.raises(ValueError, match="batched spec"):
            Instance(general, CountSequence({0: {0: 1}}, 8))
        inst = Instance(self.SPEC, CountSequence({0: {0: 2}}, 8))
        with pytest.raises(ValueError, match="record='costs'"):
            BatchedEngine(inst, DeltaLRU(), 4)
        result = BatchedEngine(inst, DeltaLRU(), 4, record="costs").run()
        assert result.cost.executions == 2


class TestInstanceValidation:
    def test_undeclared_color_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            make_instance([Job(0, 5, 4, 0)], {0: 4}, 2)

    def test_mismatched_bound_rejected(self):
        with pytest.raises(ValueError, match="delay bound"):
            make_instance([Job(0, 0, 8, 0)], {0: 4}, 2)

    def test_batched_requires_multiple_arrivals(self):
        with pytest.raises(ValueError, match="not a multiple"):
            make_instance(
                [Job(3, 0, 4, 0)], {0: 4}, 2, batch_mode=BatchMode.BATCHED
            )

    def test_batched_accepts_multiples(self):
        inst = make_instance(
            [Job(8, 0, 4, 0)], {0: 4}, 2, batch_mode=BatchMode.BATCHED
        )
        assert inst.spec.batch_mode is BatchMode.BATCHED

    def test_rate_limit_enforced(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 2, 3)  # 3 > D = 2
        with pytest.raises(ValueError, match="rate-limited"):
            make_instance(jobs, {0: 2}, 2, batch_mode=BatchMode.RATE_LIMITED)

    def test_rate_limit_boundary_ok(self):
        factory = JobFactory()
        jobs = factory.batch(0, 0, 2, 2)  # exactly D
        inst = make_instance(jobs, {0: 2}, 2, batch_mode=BatchMode.RATE_LIMITED)
        assert len(inst.sequence) == 2

    def test_describe_mentions_notation(self):
        inst = make_instance([Job(0, 0, 4, 0)], {0: 4}, 3, name="x")
        text = inst.describe()
        assert "Δ=3" in text and "x" in text

    def test_general_mode_allows_any_round(self):
        inst = make_instance([Job(3, 0, 4, 0)], {0: 4}, 2)
        assert inst.spec.batch_mode is BatchMode.GENERAL
