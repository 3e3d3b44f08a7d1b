"""Unit tests for the replicated cache pool."""

import random

import pytest

from repro.core.job import BLACK
from repro.simulation.resources import CachePool


class TestConstruction:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CachePool(0)
        with pytest.raises(ValueError):
            CachePool(2, copies=0)

    def test_num_resources(self):
        assert CachePool(4, copies=2).num_resources == 8
        assert CachePool(4, copies=1).num_resources == 4


class TestInsertEvict:
    def test_insert_returns_all_physical_resources(self):
        pool = CachePool(2, copies=2)
        slot, reconfigured, old = pool.insert(7)
        assert len(reconfigured) == 2
        assert old == BLACK
        assert list(slot.resources()) == reconfigured
        assert 7 in pool

    def test_duplicate_insert_rejected(self):
        pool = CachePool(2)
        pool.insert(7)
        with pytest.raises(ValueError, match="already cached"):
            pool.insert(7)

    def test_black_insert_rejected(self):
        with pytest.raises(ValueError, match="BLACK"):
            CachePool(2).insert(BLACK)

    def test_full_pool_rejects_insert(self):
        pool = CachePool(1)
        pool.insert(1)
        with pytest.raises(ValueError, match="full"):
            pool.insert(2)

    def test_evict_frees_slot_keeps_physical(self):
        pool = CachePool(1, copies=2)
        slot, _, _ = pool.insert(3)
        pool.evict(3)
        assert 3 not in pool
        assert slot.free
        assert slot.physical == 3

    def test_evict_unknown_color_rejected(self):
        with pytest.raises(KeyError):
            CachePool(1).evict(9)


class TestPhysicalReuse:
    def test_reinsert_into_same_colored_slot_is_free(self):
        pool = CachePool(2, copies=2)
        pool.insert(3)
        pool.evict(3)
        _, reconfigured, old = pool.insert(3)
        assert reconfigured == []  # slot still physically holds color 3
        assert old == 3

    def test_reuse_preferred_over_first_free(self):
        pool = CachePool(3, copies=1)
        pool.insert(1)
        pool.insert(2)
        pool.evict(1)
        pool.evict(2)
        # Slot 0 physically holds 1, slot 1 holds 2; inserting 2 should
        # reuse slot 1, not overwrite slot 0.
        slot, reconfigured, _ = pool.insert(2)
        assert slot.index == 1
        assert reconfigured == []

    def test_logical_insertions_count_everything(self):
        pool = CachePool(2)
        pool.insert(1)
        pool.evict(1)
        pool.insert(1)
        assert pool.logical_insertions == 2


class TestQueries:
    def test_occupancy_and_free_count(self):
        pool = CachePool(3)
        assert pool.free_slot_count() == 3
        pool.insert(1)
        pool.insert(2)
        assert pool.occupancy() == 2
        assert pool.free_slot_count() == 1
        assert not pool.is_full()
        pool.insert(3)
        assert pool.is_full()

    def test_cached_colors_and_occupied_slots(self):
        pool = CachePool(3)
        pool.insert(5)
        pool.insert(9)
        assert pool.cached_colors() == frozenset({5, 9})
        assert [s.occupant for s in pool.occupied_slots()] == [5, 9]

    def test_slot_of(self):
        pool = CachePool(2)
        slot, _, _ = pool.insert(4)
        assert pool.slot_of(4) is slot
        with pytest.raises(KeyError):
            pool.slot_of(8)


class ScanPool:
    """The pool's slot choice as a scan over all slots: the reference.

    ``insert`` takes the first free slot that still physically holds the
    color, else the first free slot.  The production pool answers both
    with lookups; every step must pick the same slot.
    """

    def __init__(self, capacity: int, copies: int) -> None:
        self.copies = copies
        self.slots = [[BLACK, BLACK] for _ in range(capacity)]

    def insert(self, color: int) -> tuple[int, list[int], int]:
        target = None
        for index, (occupant, physical) in enumerate(self.slots):
            if occupant != BLACK:
                continue
            if physical == color:
                target = index
                break
            if target is None:
                target = index
        old_physical = self.slots[target][1]
        reconfigured = (
            list(range(target * self.copies, (target + 1) * self.copies))
            if old_physical != color
            else []
        )
        self.slots[target] = [color, color]
        return target, reconfigured, old_physical

    def evict(self, color: int) -> int:
        for index, slot in enumerate(self.slots):
            if slot[0] == color:
                slot[0] = BLACK
                return index
        raise KeyError(color)


def _random_valid_slots(rng, capacity, colors):
    """A snapshot a run could produce: occupied slots hold their occupant
    physically, and no color is physically held twice."""
    held = rng.sample(colors, rng.randint(0, min(capacity, len(colors))))
    physical = held + [BLACK] * (capacity - len(held))
    rng.shuffle(physical)
    return [
        [color if color != BLACK and rng.random() < 0.5 else BLACK, color]
        for color in physical
    ]


class TestAgainstScanReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_insert_evict_and_load_match_the_scan(self, seed):
        rng = random.Random(seed)
        capacity, copies = rng.randint(1, 8), rng.randint(1, 3)
        colors = list(range(rng.randint(capacity, 3 * capacity)))
        pool, ref = CachePool(capacity, copies), ScanPool(capacity, copies)
        for _ in range(300):
            cached = sorted(pool.cached_colors())
            roll = rng.random()
            if roll < 0.05:
                slots = _random_valid_slots(rng, capacity, colors)
                pool.load_state({"slots": slots, "logical_insertions": 7})
                ref.slots = [list(slot) for slot in slots]
            elif cached and (roll < 0.45 or len(cached) == capacity):
                color = rng.choice(cached)
                assert pool.evict(color).index == ref.evict(color)
            else:
                color = rng.choice([c for c in colors if c not in cached])
                slot, reconfigured, old = pool.insert(color)
                assert (slot.index, reconfigured, old) == ref.insert(color)
            assert pool.state_dict()["slots"] == ref.slots
            assert [s.occupant for s in pool.occupied_slots()] == [
                occupant for occupant, _ in ref.slots if occupant != BLACK
            ]


    def test_free_index_stays_bounded(self):
        # Reinserting a color reuses its slot without popping the heap;
        # the stale entries must not pile up over a long run.
        pool = CachePool(4, copies=2)
        for color in (1, 2):
            pool.insert(color)
        for _ in range(1000):
            pool.evict(1)
            pool.insert(1)
        assert len(pool._free_heap) <= pool.capacity


class TestLoadStateValidation:
    def _pool(self):
        pool = CachePool(4, copies=2)
        pool.insert(1)
        return pool

    @pytest.mark.parametrize(
        "slots, match",
        [
            # One color in two slots: occupied_slots() would list it twice
            # while occupancy() read 1.
            (
                [[3, 3], [3, 3], [-1, -1], [-1, -1]],
                "slot 1: color 3 also occupies slot 0",
            ),
            # An occupant on resources of another physical color.
            ([[3, 5], [-1, -1], [-1, -1], [-1, -1]], "slot 0: occupant 3"),
            # Two free slots physically holding one color.
            ([[-1, 5], [-1, 5], [-1, -1], [-1, -1]], "slot 1: physical color 5"),
            # A cached color also held physically by a free slot.
            ([[-1, 5], [5, 5], [-1, -1], [-1, -1]], "slot 1: physical color 5"),
            ([[3], [-1, -1], [-1, -1], [-1, -1]], "slot 0: expected"),
            ([[-1, -1], [-1, -7], [-1, -1], [-1, -1]], "slot 1: expected"),
            ([[-1, -1], [-1, 2.5], [-1, -1], [-1, -1]], "slot 1: expected"),
        ],
    )
    def test_bad_slots_rejected_by_slot(self, slots, match):
        pool = self._pool()
        before = pool.state_dict()
        with pytest.raises(ValueError, match=match):
            pool.load_state({"slots": slots, "logical_insertions": 0})
        assert pool.state_dict() == before  # nothing half-loaded

    @pytest.mark.parametrize("insertions", [-1, 1.5, "3", True, None])
    def test_bad_logical_insertions_rejected(self, insertions):
        pool = self._pool()
        before = pool.state_dict()
        with pytest.raises(ValueError, match="logical_insertions"):
            pool.load_state(
                {"slots": [[-1, -1]] * 4, "logical_insertions": insertions}
            )
        assert pool.state_dict() == before

    def test_round_trip_keeps_the_slot_choice(self):
        pool = CachePool(4, copies=2)
        for color in (1, 2, 3):
            pool.insert(color)
        pool.evict(1)
        pool.evict(3)
        restored = CachePool(4, copies=2)
        restored.load_state(pool.state_dict())
        assert restored.state_dict() == pool.state_dict()
        # 3 still sits physically in slot 2; 9 takes the lowest free slot.
        for color in (3, 9, 1):
            a, b = pool.insert(color), restored.insert(color)
            assert (a[0].index, a[1], a[2]) == (b[0].index, b[1], b[2])
        assert restored.logical_insertions == pool.logical_insertions == 6

    def test_engine_import_names_the_slot(self):
        from repro.algorithms.dlru_edf import DeltaLRUEDF
        from repro.simulation.engine import BatchedEngine
        from repro.workloads.random_batched import random_rate_limited

        instance = random_rate_limited(
            6, 3, 64, seed=0, load=0.7, bound_choices=(2, 4, 8)
        )
        donor = BatchedEngine(instance, DeltaLRUEDF(), 8, record="costs")
        state = donor.export_state()
        state["cache"] = {
            "slots": [[3, 3], [3, 3], [-1, -1], [-1, -1]],
            "logical_insertions": 0,
        }
        engine = BatchedEngine(instance, DeltaLRUEDF(), 8, record="costs")
        with pytest.raises(ValueError, match="slot 1: color 3"):
            engine.import_state(state)
