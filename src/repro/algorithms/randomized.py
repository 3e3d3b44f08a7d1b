"""Randomized reconfiguration schemes.

Classic paging separates deterministic (ratio k) from randomized
(ratio H_k) algorithms via marking.  The paper is deterministic-only;
these schemes explore whether randomization helps here:

* :class:`RandomizedMarking` — marking adapted to colors: a cached color
  is *marked* when it executes; when room is needed, evict a uniformly
  random unmarked color (clearing marks when all are marked).  Against
  the appendix adversaries an oblivious random choice breaks the exact
  pinning/thrashing patterns, but cannot beat the combination.
* :class:`RandomEvict` — the fully oblivious baseline: evict a uniformly
  random cached color.

Both take an explicit seed; runs are deterministic given it.  The
generator is (re-)derived from that seed through
:func:`~repro.runtime.seeding.derive_seed` in :meth:`reset`, which every
engine calls at construction — so a scheme instance reused across sweep
repeats or adversary-search restarts replays the identical stream
instead of silently continuing the previous run's.

Sparse-core contract: neither scheme is stationary (an eviction draw is
random, and marking keeps a mark set the engine cannot see), so the
engine simulates every round of both.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.seeding import derive_seed
from repro.simulation.engine import BatchedEngine, ReconfigurationScheme


class RandomEvict(ReconfigurationScheme):
    """EDF admission, uniformly random eviction."""

    name = "random-evict"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self.reset()

    def reset(self, seed: int | None = None) -> None:
        if seed is not None:
            self._seed = seed
        self._rng = np.random.default_rng(derive_seed(self._seed, self.name))

    def state_dict(self) -> dict:
        # bit_generator.state is a plain dict of ints/strings for every
        # numpy generator — JSON-ready as-is, and assigning it back
        # restores the exact draw stream (checkpoint/restore contract).
        return {"rng": self._rng.bit_generator.state}

    def load_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]

    def reconfigure(self, engine: BatchedEngine) -> None:
        capacity = engine.cache.capacity
        ranking = engine.rank_eligible()
        for color in ranking[:capacity]:
            if engine.state(color).idle or color in engine.cache:
                continue
            if engine.cache.is_full():
                cached = sorted(engine.cache.cached_colors())
                victim = int(self._rng.choice(np.asarray(cached)))
                engine.cache_evict(victim)
            engine.cache_insert(color)


class RandomizedMarking(ReconfigurationScheme):
    """Marking-style eviction: random among the unmarked."""

    name = "randomized-marking"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._marked: set[int] = set()
        self.reset()

    def reset(self, seed: int | None = None) -> None:
        if seed is not None:
            self._seed = seed
        self._rng = np.random.default_rng(derive_seed(self._seed, self.name))
        self._marked = set()

    def setup(self, engine: BatchedEngine) -> None:
        self._marked = set()

    def state_dict(self) -> dict:
        return {
            "rng": self._rng.bit_generator.state,
            "marked": sorted(self._marked),
        }

    def load_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        self._marked = set(state["marked"])

    def reconfigure(self, engine: BatchedEngine) -> None:
        capacity = engine.cache.capacity
        # Mark cached colors that did work recently (nonidle now counts
        # as "requested" in paging terms).
        for color in engine.cache.cached_colors():
            if not engine.state(color).idle:
                self._marked.add(color)
        ranking = engine.rank_eligible()
        for color in ranking[:capacity]:
            if engine.state(color).idle or color in engine.cache:
                continue
            if engine.cache.is_full():
                cached = engine.cache.cached_colors()
                unmarked = sorted(cached - self._marked)
                if not unmarked:
                    # New phase: clear marks (keep the incoming request's
                    # mark semantics simple and evict randomly).
                    self._marked -= cached
                    unmarked = sorted(cached)
                victim = int(self._rng.choice(np.asarray(unmarked)))
                engine.cache_evict(victim)
                self._marked.discard(victim)
            engine.cache_insert(color)
            self._marked.add(color)
