"""Algorithm EDF (Section 3.1.2).

Eligible colors are ranked first on idleness (nonidle first), then in
ascending order of deadlines, breaking ties by increasing delay bounds and
then by the consistent order of colors.  Any nonidle eligible color within
the top-capacity ranks that is not cached is brought in, evicting the
lowest-ranked cached color when the cache is full.

The paper proves (Appendix B, reproduced in ``EXP-B``) that EDF alone is
*not* resource competitive: alternating idleness of a short-delay-bound
color makes EDF repeatedly swap a long-delay-bound color in and out —
thrashing.
"""

from __future__ import annotations

from repro.simulation.engine import BatchedEngine, ReconfigurationScheme
from repro.simulation.resources import CachePool


class EDF(ReconfigurationScheme):
    """Earliest-deadline-first reconfiguration over eligible colors."""

    name = "EDF"
    # Admits only nonidle colors and never evicts without admitting, so
    # empty-queue stretches are fixed points the sparse core may skip.
    stationary = True

    def reconfigure(self, engine: BatchedEngine) -> None:
        if engine.at_fixed_point():
            return
        capacity = engine.cache.capacity
        ranking = engine.rank_eligible()
        # Rank position of every eligible color; cached colors are always
        # eligible (eligibility is only cleared outside the cache), so the
        # eviction victim — the cached color with the lowest rank — is
        # always defined.
        for color in ranking[:capacity]:
            state = engine.state(color)
            if state.idle or color in engine.cache:
                continue
            if engine.cache.is_full():
                victim = self._lowest_ranked_cached(engine.cache, ranking)
                engine.cache_evict(victim)
            engine.cache_insert(color, section="edf")
        engine.mark_fixed_point()

    @staticmethod
    def _lowest_ranked_cached(cache: CachePool, ranking: list[int]) -> int:
        for color in reversed(ranking):
            if color in cache:
                return color
        raise RuntimeError("cache full but no cached color found in the ranking")
