"""Unit tests for per-color runtime state (counters, timestamps)."""

import pytest

from repro.core.job import Job
from repro.simulation.state import ColorState


def make_state(bound=4):
    return ColorState(color=0, delay_bound=bound)


class TestPendingQueue:
    """A batched queue is one batch: an arrival round and a count."""

    def test_idle_reflects_pending(self):
        st = make_state()
        assert st.idle
        st.add_batch(0, 1)
        assert not st.idle
        st.pending = 0
        assert st.idle

    def test_batch_records_arrival_and_count(self):
        st = make_state()
        st.add_batch(8, 3)
        assert (st.arrival, st.pending) == (8, 3)

    def test_batch_on_nonempty_queue_raises(self):
        # The drop phase empties the queue at every boundary, so a batch
        # meeting pending jobs means two arrival rounds would merge.
        st = make_state()
        st.add_batch(4, 2)
        with pytest.raises(ValueError, match="color 0.*round 8.*round 4"):
            st.add_batch(8, 1)
        assert (st.arrival, st.pending) == (4, 2)
        st.pending = 0
        st.add_batch(8, 1)
        assert (st.arrival, st.pending) == (8, 1)

    def test_full_record_pending_jobs_are_the_batch_tail(self):
        # A full-record engine keeps the batch's jobs; executions take
        # the head of the still-pending tail, so the schedule names jids
        # in arrival-sequence order.
        from repro.algorithms.dlru import DeltaLRU
        from repro.core.instance import BatchMode, make_instance
        from repro.simulation.engine import BatchedEngine

        jobs = [Job(0, 0, 4, jid) for jid in (7, 3, 5)]
        instance = make_instance(
            jobs, {0: 4}, 1, batch_mode=BatchMode.BATCHED, horizon=8
        )
        engine = BatchedEngine(instance, DeltaLRU(), 2, copies=2)
        engine._arrival_phase(0)
        st = engine.state(0)
        assert [job.jid for job in st.jobs] == [3, 5, 7]
        assert st.pending == 3
        result = BatchedEngine(instance, DeltaLRU(), 2, copies=2).run()
        executed = [(e.round_index, e.jid) for e in result.schedule.executions]
        assert executed == [(0, 3), (0, 5), (1, 7)]


class TestWrapHistory:
    def test_wraps_recorded_in_order(self):
        st = make_state()
        st.record_wrap(4)
        st.record_wrap(8)
        assert st.prev_wrap == 4
        assert st.last_wrap == 8

    def test_out_of_order_wrap_rejected(self):
        st = make_state()
        st.record_wrap(8)
        with pytest.raises(ValueError):
            st.record_wrap(4)

    def test_same_round_wrap_idempotent(self):
        st = make_state()
        st.record_wrap(4)
        st.record_wrap(4)
        assert st.last_wrap == 4
        assert st.prev_wrap is None


class TestTimestamps:
    """The Section 3.1.1 timestamp definition: latest wrap strictly before
    the most recent integral multiple of the delay bound."""

    def test_no_wraps_means_zero(self):
        assert make_state().timestamp(10) == 0

    def test_wrap_not_visible_until_next_multiple(self):
        st = make_state(bound=4)
        st.record_wrap(4)
        # At rounds 4..7, the most recent multiple is 4; the wrap at 4 is
        # not strictly before it, so the timestamp stays 0.
        assert st.timestamp(4) == 0
        assert st.timestamp(7) == 0
        # From round 8 the multiple is 8 and the wrap at 4 counts.
        assert st.timestamp(8) == 4
        assert st.timestamp(11) == 4

    def test_two_wraps_pick_latest_eligible(self):
        st = make_state(bound=4)
        st.record_wrap(4)
        st.record_wrap(12)
        assert st.timestamp(12) == 4  # wrap at 12 not yet visible
        assert st.timestamp(16) == 12

    def test_timestamp_monotone_in_time(self):
        st = make_state(bound=4)
        st.record_wrap(4)
        values = [st.timestamp(now) for now in range(0, 20)]
        assert values == sorted(values)
