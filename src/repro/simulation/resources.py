"""Resource pool modeled as a replicated color cache (Section 3.1).

The paper views the ``n`` resources as a cache of color *locations*: the
first half of the capacity caches distinct colors and the second half
replicates them, so each cached color occupies ``copies`` physical
resources (``copies = 2`` for the Section 3 algorithms, ``copies = 1`` for
Seq-EDF).

Cost accounting is *physical*: inserting a color into a slot reconfigures
only the physical resources whose current color differs.  The pool prefers
a free slot that still physically holds the incoming color (else it takes
the lowest free slot; both choices are lookups), which can only
make the online algorithms cheaper than the paper's amortized accounting
(where every insertion charges ``copies * Δ``); a separate
``logical_insertions`` counter tracks the paper's accounting exactly for
the lemma auditors.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro.core.job import BLACK


@dataclass(slots=True)
class Slot:
    """One distinct-color slot backed by ``copies`` physical resources."""

    index: int
    copies: int
    #: Logical occupant: the color currently cached here, or ``BLACK`` if free.
    occupant: int = BLACK
    #: Physical color of the underlying resources (persists across evictions).
    physical: int = BLACK

    @property
    def free(self) -> bool:
        return self.occupant == BLACK

    def resources(self) -> range:
        """Physical resource indices backing this slot."""
        return range(self.index * self.copies, (self.index + 1) * self.copies)


class CachePool:
    """Fixed-capacity cache of distinct colors with replication.

    The pool tracks logical occupancy (which colors are cached), physical
    resource colors (for schedule emission), and insertion/eviction
    bookkeeping.  It is policy-free: eviction *choices* belong to the
    reconfiguration schemes.
    """

    def __init__(self, capacity: int, copies: int = 2) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        if copies <= 0:
            raise ValueError("replication factor must be positive")
        self.capacity = capacity
        self.copies = copies
        self._slots = [Slot(i, copies) for i in range(capacity)]
        self._slot_of: dict[int, Slot] = {}
        # The free-slot index behind ``insert``: free slots by physical
        # color (at most one slot physically holds a given non-BLACK
        # color, since ``insert`` reuses it), and a min-heap of free slot
        # indices.  A slot taken by physical color keeps its heap entry;
        # ``insert`` discards such stale entries as they surface, and
        # ``_queued`` keeps one entry per index so the heap never
        # outgrows the pool.
        self._free_by_physical: dict[int, Slot] = {}
        self._free_heap: list[int] = list(range(capacity))
        self._queued = [True] * capacity
        #: Paper-style accounting: every insertion counts, even when the
        #: physical resources already hold the color.
        self.logical_insertions = 0
        # occupied_slots() is called every mini-round of the engines'
        # execution phases; occupancy changes far less often, so the
        # scan is cached and invalidated on insert/evict.
        self._occupied_cache: list[Slot] | None = []

    # -- queries -----------------------------------------------------------

    @property
    def num_resources(self) -> int:
        return self.capacity * self.copies

    def __contains__(self, color: int) -> bool:
        return color in self._slot_of

    def cached_colors(self) -> frozenset[int]:
        return frozenset(self._slot_of)

    def slot_of(self, color: int) -> Slot:
        try:
            return self._slot_of[color]
        except KeyError:
            raise KeyError(f"color {color} is not cached") from None

    def free_slot_count(self) -> int:
        return self.capacity - len(self._slot_of)

    def is_full(self) -> bool:
        return len(self._slot_of) >= self.capacity

    def occupancy(self) -> int:
        return len(self._slot_of)

    # -- mutation ----------------------------------------------------------

    def insert(self, color: int) -> tuple[Slot, list[int], int]:
        """Cache ``color`` in the free slot that still physically holds
        it, else in the lowest free slot.

        Returns ``(slot, reconfigured, old_physical)``: the slot used, the
        physical resources that were actually reconfigured (empty when a
        free slot still held the color physically), and the slot's previous
        physical color.  Raises if the color is already cached or no slot
        is free — callers must evict first.
        """
        if color == BLACK:
            raise ValueError("cannot cache BLACK")
        if color in self._slot_of:
            raise ValueError(f"color {color} is already cached")
        target = self._free_by_physical.pop(color, None)
        if target is not None:
            old_physical = color  # zero-cost physical reuse
            reconfigured = []
        else:
            if len(self._slot_of) >= self.capacity:
                raise ValueError("cache is full; evict before inserting")
            # The lowest free index: pop past entries of slots that were
            # since taken by physical color.
            heap, queued, slots = self._free_heap, self._queued, self._slots
            while True:
                index = heappop(heap)
                queued[index] = False
                target = slots[index]
                if target.occupant == BLACK:
                    break
            old_physical = target.physical
            if old_physical != BLACK:
                del self._free_by_physical[old_physical]
            reconfigured = list(target.resources())
        target.occupant = color
        target.physical = color
        self._slot_of[color] = target
        self.logical_insertions += 1
        self._occupied_cache = None
        return target, reconfigured, old_physical

    def evict(self, color: int) -> Slot:
        """Remove ``color`` from the cache; the slot's physical color persists."""
        slot = self.slot_of(color)
        slot.occupant = BLACK
        del self._slot_of[color]
        self._free_by_physical[slot.physical] = slot
        if not self._queued[slot.index]:
            self._queued[slot.index] = True
            heappush(self._free_heap, slot.index)
        self._occupied_cache = None
        return slot

    # -- checkpoint/restore ------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-ready snapshot: per-slot ``[occupant, physical]`` pairs.

        Physical colors persist across evictions and decide future
        reconfiguration costs (``insert`` prefers a free slot already
        holding the color), so both halves of every slot are part of the
        cost-relevant state.
        """
        return {
            "slots": [[slot.occupant, slot.physical] for slot in self._slots],
            "logical_insertions": self.logical_insertions,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in slot order.

        Raises ``ValueError``, naming the slot, for a snapshot no run
        can produce: an occupied slot whose physical color differs from
        its occupant, a color occupying two slots, two slots physically
        holding one color, or a bad ``logical_insertions``.  The pool is
        left unchanged then.
        """
        slots = state["slots"]
        if len(slots) != self.capacity:
            raise ValueError(
                f"checkpoint has {len(slots)} slots, pool has {self.capacity}"
            )
        insertions = state["logical_insertions"]
        if type(insertions) is not int or insertions < 0:
            raise ValueError(
                f"checkpoint logical_insertions {insertions!r} is not a "
                "nonnegative int"
            )
        occupied_at: dict[int, int] = {}
        held_at: dict[int, int] = {}
        for index, entry in enumerate(slots):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or any(type(c) is not int or c < BLACK for c in entry)
            ):
                raise ValueError(
                    f"checkpoint slot {index}: expected [occupant, physical] "
                    f"colors, got {entry!r}"
                )
            occupant, physical = entry
            if occupant != BLACK:
                if physical != occupant:
                    raise ValueError(
                        f"checkpoint slot {index}: occupant {occupant} on "
                        f"resources of physical color {physical}"
                    )
                if occupant in occupied_at:
                    raise ValueError(
                        f"checkpoint slot {index}: color {occupant} also "
                        f"occupies slot {occupied_at[occupant]}"
                    )
                occupied_at[occupant] = index
            if physical != BLACK:
                if physical in held_at:
                    raise ValueError(
                        f"checkpoint slot {index}: physical color {physical} "
                        f"is also held by slot {held_at[physical]}"
                    )
                held_at[physical] = index
        self._slot_of = {}
        self._free_by_physical = {}
        self._free_heap = []  # ascending, so already a heap
        for slot, (occupant, physical) in zip(self._slots, slots):
            slot.occupant = occupant
            slot.physical = physical
            if occupant != BLACK:
                self._slot_of[occupant] = slot
                continue
            self._free_heap.append(slot.index)
            if physical != BLACK:
                self._free_by_physical[physical] = slot
        self._queued = [slot.free for slot in self._slots]
        self.logical_insertions = insertions
        self._occupied_cache = None

    # -- iteration ---------------------------------------------------------

    def occupied_slots(self) -> list[Slot]:
        """Slots currently caching a color, in slot order (cached)."""
        occupied = self._occupied_cache
        if occupied is None:
            occupied = [slot for slot in self._slots if not slot.free]
            self._occupied_cache = occupied
        return occupied
