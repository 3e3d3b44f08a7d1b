"""Round-by-round micro-behavior of the three schemes on crafted inputs.

These tests pin the *exact* cache dynamics the paper's prose describes,
on instances small enough to verify by hand.
"""

import pytest

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.core.instance import BatchMode, make_instance
from repro.core.job import JobFactory
from repro.simulation.engine import simulate


def cache_timeline(result):
    """[(round, mini, color, 'in'/'out')] in trace order."""
    out = []
    for event in result.trace:
        if event.name == "cache_in":
            out.append((event.round_index, event.data["color"], "in"))
        elif event.name == "cache_out":
            out.append((event.round_index, event.data["color"], "out"))
    return out


class TestEDFMicro:
    def test_earliest_deadline_color_admitted_first(self):
        """Two colors wrap simultaneously; the shorter bound (earlier
        deadline) must enter the cache first in trace order."""
        factory = JobFactory()
        jobs = factory.batch(0, 0, 8, 2) + factory.batch(0, 1, 2, 2)
        inst = make_instance(
            jobs, {0: 8, 1: 2}, 2, batch_mode=BatchMode.RATE_LIMITED
        )
        result = simulate(inst, EDF(), 4)  # capacity 2: both fit
        ins = [e for e in cache_timeline(result) if e[2] == "in"]
        assert ins[0][1] == 1  # D=2 color first (deadline 2 < 8)
        assert ins[1][1] == 0

    def test_idle_color_not_admitted(self):
        """A color whose jobs were all executed is idle: EDF must not
        bring it back even while eligible."""
        factory = JobFactory()
        jobs = factory.batch(0, 0, 4, 2)
        inst = make_instance(
            jobs, {0: 4, 1: 4}, 2, batch_mode=BatchMode.RATE_LIMITED,
            horizon=12,
        )
        result = simulate(inst, EDF(), 4)
        ins = [e for e in cache_timeline(result) if e[2] == "in"]
        assert len(ins) == 1  # entered once, never re-admitted

    def test_eviction_takes_lowest_rank(self):
        """Cache of 1 slot, two competing colors: the later-deadline one
        is evicted when the earlier-deadline one becomes nonidle."""
        factory = JobFactory()
        jobs = []
        jobs += factory.batch(0, 0, 8, 8)  # long color, busy throughout
        jobs += factory.batch(4, 1, 4, 4)  # short color arrives later
        inst = make_instance(
            jobs, {0: 8, 1: 4}, 2, batch_mode=BatchMode.RATE_LIMITED
        )
        result = simulate(inst, EDF(), 2)  # ONE distinct slot
        timeline = cache_timeline(result)
        # Color 0 in at round 0; at round 4 color 1 (deadline 8 ties,
        # delay bound 4 < 8 wins the tie) evicts it.
        assert (0, 0, "in") == timeline[0]
        assert (4, 0, "out") in timeline
        assert (4, 1, "in") in timeline


class TestDeltaLRUMicro:
    def test_timestamp_recency_controls_membership(self):
        """A steadily-refreshing color keeps its slot; a one-burst color
        loses its slot once a third color earns a fresher timestamp."""
        factory = JobFactory()
        jobs = []
        for start in range(0, 24, 4):
            jobs += factory.batch(start, 0, 4, 2)  # refreshes forever
        jobs += factory.batch(0, 1, 4, 2)  # one burst only
        for start in range(8, 24, 4):
            jobs += factory.batch(start, 2, 4, 2)  # starts later
        inst = make_instance(
            jobs,
            {0: 4, 1: 4, 2: 4},
            2,
            batch_mode=BatchMode.RATE_LIMITED,
        )
        result = simulate(inst, DeltaLRU(), 4)  # capacity 2
        timeline = cache_timeline(result)
        evicted_1 = [(r, c, d) for r, c, d in timeline if c == 1 and d == "out"]
        assert evicted_1, "the stale color must eventually be displaced"
        # Color 0 is never evicted.
        assert not [e for e in timeline if e[1] == 0 and e[2] == "out"]

    def test_ignores_idleness(self):
        """ΔLRU keeps a recent-timestamp color cached even when idle —
        the underutilization the paper criticizes."""
        factory = JobFactory()
        jobs = factory.batch(0, 0, 4, 2) + factory.batch(4, 0, 4, 2)
        jobs += factory.batch(0, 1, 16, 12)  # backlog begging for service
        inst = make_instance(
            jobs, {0: 4, 1: 16}, 2, batch_mode=BatchMode.RATE_LIMITED,
            require_power_of_two=True,
        )
        result = simulate(inst, DeltaLRU(), 2)  # ONE slot
        # The slot belongs to whichever has the most recent timestamp;
        # color 0 refreshes at rounds 4 and 8, keeping timestamps fresher
        # than color 1's (which only updates at 16). Color 1's backlog
        # mostly drops.
        assert result.cost.drops_by_color.get(1, 0) >= 8


class TestDeltaLRUEDFMicro:
    def test_both_sections_occupied_under_mixed_load(self):
        factory = JobFactory()
        jobs = []
        for start in range(0, 16, 4):
            jobs += factory.batch(start, 0, 4, 2)  # recency candidate
        jobs += factory.batch(0, 1, 16, 10)  # deadline candidate
        inst = make_instance(
            jobs, {0: 4, 1: 16}, 2, batch_mode=BatchMode.RATE_LIMITED,
            require_power_of_two=True,
        )
        result = simulate(inst, DeltaLRUEDF(), 8)  # 2 LRU + 2 EDF slots
        # With only two eligible colors both fit in the LRU half (the
        # split caps, it does not reserve); the backlog is fully served.
        assert result.cost.drops_by_color.get(1, 0) == 0
        assert result.cost.num_drops == 0

    def test_edf_section_used_under_lru_contention(self):
        """With more fresh-timestamp colors than LRU slots, a busy color
        outside the LRU set must be admitted through the EDF section."""
        factory = JobFactory()
        jobs = []
        for color in range(3):  # three refreshers compete for 2 LRU slots
            for start in range(0, 16, 4):
                jobs += factory.batch(start, color, 4, 2)
        jobs += factory.batch(0, 3, 16, 10)  # the backlog color
        inst = make_instance(
            jobs,
            {0: 4, 1: 4, 2: 4, 3: 16},
            2,
            batch_mode=BatchMode.RATE_LIMITED,
            require_power_of_two=True,
        )
        result = simulate(inst, DeltaLRUEDF(), 8)
        sections = {
            (e.data["color"], e.data["section"])
            for e in result.trace
            if e.name == "cache_in"
        }
        assert any(section == "edf" for _, section in sections)
        # The backlog still gets service despite losing the LRU race.
        assert result.cost.drops_by_color.get(3, 0) < 10

    def test_unfilled_lru_leaves_room_for_edf(self):
        """With one eligible color total, the EDF half still admits it
        (capacity split is a cap, not a reservation against emptiness)."""
        factory = JobFactory()
        jobs = factory.batch(0, 0, 4, 4)
        inst = make_instance(
            jobs, {0: 4}, 2, batch_mode=BatchMode.RATE_LIMITED
        )
        result = simulate(inst, DeltaLRUEDF(), 8)
        assert result.cost.num_drops == 0
